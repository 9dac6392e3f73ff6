// Package app is the field pass's fixture: one config struct whose four
// fields are set in four different ways, and one switch on it.
package app

// AppConfig has one field set by reached code, one named only by shipped
// JSON, one set only by its own withDefaults and one set only by a test.
type AppConfig struct {
	Mode         string `json:"mode"`
	JSONOnly     int    `json:"json_only"`
	DefaultsOnly int
	TestOnly     int
}

func (c AppConfig) withDefaults() AppConfig {
	if c.DefaultsOnly == 0 {
		c.DefaultsOnly = 3
	}
	return c
}

// Run switches on Mode: "fast" is named by the binary, "slow" by nothing.
func Run(c AppConfig) int {
	c = c.withDefaults()
	switch c.Mode {
	case "fast":
		return c.DefaultsOnly
	case "slow":
		return c.TestOnly
	}
	return c.JSONOnly
}
