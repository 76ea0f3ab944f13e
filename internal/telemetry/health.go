package telemetry

import "encoding/json"

// Check is one named readiness probe inside a HealthReport. OK=false
// marks the resource degraded; Detail says why (or gives the healthy
// reading, so operators see the margin as well as the verdict).
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// HealthReport is a node's liveness plus per-resource readiness — the
// body of the "health" inspect kind. Ready is the conjunction of all
// checks: a node that answers at all is live, but a saturated queue or
// missing Contention Estimator degrades it.
type HealthReport struct {
	Node       string  `json:"node"`
	Role       string  `json:"role"`
	Ready      bool    `json:"ready"`
	Checks     []Check `json:"checks"`
	UptimeNano int64   `json:"uptime_nano,omitempty"`
}

// Summarize sets Ready from the conjunction of the checks and returns
// the report for chaining.
func (h HealthReport) Summarize() HealthReport {
	h.Ready = true
	for _, c := range h.Checks {
		if !c.OK {
			h.Ready = false
			break
		}
	}
	return h
}

// Failing returns the names of the degraded checks.
func (h HealthReport) Failing() []string {
	var out []string
	for _, c := range h.Checks {
		if !c.OK {
			out = append(out, c.Name)
		}
	}
	return out
}

// EncodeChecks marshals checks to a JSON array.
func EncodeChecks(checks []Check) ([]byte, error) {
	if checks == nil {
		checks = []Check{}
	}
	return json.Marshal(checks)
}

// DecodeChecks parses the payload produced by EncodeChecks. An empty
// payload decodes to no checks.
func DecodeChecks(b []byte) ([]Check, error) {
	if len(b) == 0 {
		return nil, nil
	}
	var checks []Check
	if err := json.Unmarshal(b, &checks); err != nil {
		return nil, err
	}
	return checks, nil
}
