// Package metrics is a fixture stand-in for the real summary package: an
// exported struct here is a metrics-summary sink for entropyflow.
package metrics

// Summary is the fixture copy of the serialized run summary.
type Summary struct {
	Policy   string  `json:"policy"`
	NewGauge float64 `json:"new_gauge,omitempty"`
}
