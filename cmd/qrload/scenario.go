package main

import (
	"fmt"
	"os"
	"time"
)

// Scenario is a parsed load scenario: the global pacing knobs plus an
// endpoint mix. Example:
//
//	base_url = "http://127.0.0.1:8787"
//	duration = "10s"
//	threads  = 8
//	pacing   = "5ms"   # per-thread think time between requests
//	ramp_up  = "1s"    # threads start staggered across this window
//	tenant   = "load"
//
//	[[endpoint]]
//	kind      = "solve"   # factor | solve | stream
//	weight    = 3
//	rows      = 96
//	cols      = 32
//	rhs       = 1
//	precision = "d"       # d | z | s | c
//
//	[[endpoint]]
//	kind   = "stream"
//	weight = 1
//	rows   = 64           # rows per appended batch
//	cols   = 32
type Scenario struct {
	BaseURL  string
	Duration time.Duration
	Threads  int
	Pacing   time.Duration
	RampUp   time.Duration
	Tenant   string

	Endpoints []Endpoint
}

// Endpoint is one member of the scenario's traffic mix.
type Endpoint struct {
	Kind       string // "factor", "solve" or "stream"
	Weight     int
	Rows, Cols int
	RHS        int
	Precision  string
	TileSize   int
	InnerBlock int
	// VaryMatrix randomizes the solve matrix per request. Off by default:
	// a fleet of solves against one shared design matrix is the
	// model-serving workload, and the one where a solve can arrive while
	// another thread's identical matrix is being factored and share it.
	VaryMatrix bool
}

// tomlDuration reads a duration-valued key ("250ms", "2s").
func tomlDuration(t map[string]any, key string, def time.Duration) (time.Duration, error) {
	s, err := tomlStr(t, key, "")
	if err != nil {
		return 0, err
	}
	if s == "" {
		return def, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("%s: %v", key, err)
	}
	return d, nil
}

// loadScenario reads and validates a scenario file.
func loadScenario(path string) (*Scenario, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	root, err := parseTOML(string(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sc := &Scenario{}
	if sc.BaseURL, err = tomlStr(root, "base_url", "http://127.0.0.1:8787"); err != nil {
		return nil, err
	}
	if sc.Duration, err = tomlDuration(root, "duration", 10*time.Second); err != nil {
		return nil, err
	}
	if sc.Threads, err = tomlInt(root, "threads", 4); err != nil {
		return nil, err
	}
	if sc.Pacing, err = tomlDuration(root, "pacing", 0); err != nil {
		return nil, err
	}
	if sc.RampUp, err = tomlDuration(root, "ramp_up", 0); err != nil {
		return nil, err
	}
	if sc.Tenant, err = tomlStr(root, "tenant", ""); err != nil {
		return nil, err
	}
	if sc.Duration <= 0 || sc.Threads < 1 {
		return nil, fmt.Errorf("%s: duration must be positive and threads ≥ 1", path)
	}
	eps, _ := root["endpoint"].([]map[string]any)
	if len(eps) == 0 {
		return nil, fmt.Errorf("%s: at least one [[endpoint]] is required", path)
	}
	for i, t := range eps {
		ep := Endpoint{}
		if ep.Kind, err = tomlStr(t, "kind", "solve"); err != nil {
			return nil, err
		}
		if ep.Weight, err = tomlInt(t, "weight", 1); err != nil {
			return nil, err
		}
		if ep.Rows, err = tomlInt(t, "rows", 64); err != nil {
			return nil, err
		}
		if ep.Cols, err = tomlInt(t, "cols", 32); err != nil {
			return nil, err
		}
		if ep.RHS, err = tomlInt(t, "rhs", 0); err != nil {
			return nil, err
		}
		if ep.Precision, err = tomlStr(t, "precision", "d"); err != nil {
			return nil, err
		}
		if ep.TileSize, err = tomlInt(t, "tile_size", 0); err != nil {
			return nil, err
		}
		if ep.InnerBlock, err = tomlInt(t, "inner_block", 0); err != nil {
			return nil, err
		}
		if ep.VaryMatrix, err = tomlBool(t, "vary_matrix", false); err != nil {
			return nil, err
		}
		switch ep.Kind {
		case "factor", "stream":
		case "solve":
			if ep.RHS < 1 {
				ep.RHS = 1
			}
			if ep.Rows < ep.Cols {
				return nil, fmt.Errorf("%s: endpoint %d: solve wants rows ≥ cols", path, i+1)
			}
		default:
			return nil, fmt.Errorf("%s: endpoint %d: unknown kind %q", path, i+1, ep.Kind)
		}
		if ep.Weight < 1 || ep.Rows < 1 || ep.Cols < 1 {
			return nil, fmt.Errorf("%s: endpoint %d: weight, rows and cols must be ≥ 1", path, i+1)
		}
		sc.Endpoints = append(sc.Endpoints, ep)
	}
	return sc, nil
}
