package main

import (
	"fmt"

	"rlgraph/internal/app"
)

func main() {
	fmt.Println(app.Run(app.AppConfig{Mode: "fast"}))
}
