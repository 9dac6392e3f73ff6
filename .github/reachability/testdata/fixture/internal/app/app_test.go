package app

import "testing"

func TestSeam(t *testing.T) {
	if Run(AppConfig{Mode: "fast", TestOnly: 1}) != 3 {
		t.Fatal("fast mode")
	}
}
