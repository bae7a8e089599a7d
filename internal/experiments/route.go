package experiments

import (
	"fmt"
	"time"

	cssi "repro"
)

func init() {
	register("route", Route)
}

// routeTrials is the alternating timing-trial count per routed
// measurement (min-of-N against scheduler noise, like the other
// experiments).
const routeTrials = 5

// routeTargets is the probability-mass ladder the routed approximate
// sweep walks; 0 means the library default target.
var routeTargets = []float64{0.5, 0.8, 0, 0.95, 1}

// Route measures the learned cluster router: the routed approximate
// mode against plain CSSIA — clusters visited in predicted-probability
// order until the requested probability mass is covered, swept over
// RouteTarget, with recall@k and latency against the exact answer, the
// recall/latency curve the RouteTarget knob trades along. (Route has no
// effect on exact queries; see DESIGN.md §4b.)
func Route(s Setup) ([]Table, error) {
	s.applyDefaults()
	approx, err := routeApproxTable(s)
	if err != nil {
		return nil, err
	}
	return []Table{approx}, nil
}

// routeFixture builds the shared index and query sample over the
// default Twitter workload, failing if Build skipped router training
// (the experiment is meaningless unrouted).
func routeFixture(s Setup) (*cssi.Index, *cssi.Dataset, []cssi.Object, error) {
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{
		Kind: cssi.TwitterLike, Size: s.twitterDefault(), Dim: s.Dim, Seed: s.Seed,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	idx, err := cssi.Build(ds, cssi.Options{Seed: s.Seed})
	if err != nil {
		return nil, nil, nil, err
	}
	if !idx.RouterTrained() {
		return nil, nil, nil, fmt.Errorf("route: %d-object build skipped router training", ds.Len())
	}
	return idx, ds, ds.SampleQueries(s.Queries, s.Seed+17), nil
}

// routeApproxTable sweeps the routed approximate mode over RouteTarget
// against plain CSSIA and the exact baseline, reporting the
// recall/latency curve.
func routeApproxTable(s Setup) (Table, error) {
	idx, _, queries, err := routeFixture(s)
	if err != nil {
		return Table{}, err
	}
	k, lambda := s.K, s.Lambda

	exact := make([][]cssi.Result, len(queries))
	for qi := range queries {
		exact[qi], err = idx.Do(cssi.SearchRequest{Query: &queries[qi], K: k, Lambda: lambda})
		if err != nil {
			return Table{}, err
		}
	}

	type mode struct {
		name   string
		req    cssi.SearchRequest
		target float64
	}
	modes := []mode{
		{"cssi exact", cssi.SearchRequest{}, -1},
		{"cssia", cssi.SearchRequest{Approx: true}, -1},
	}
	for _, tg := range routeTargets {
		name := fmt.Sprintf("routed@%.2f", tg)
		if tg == 0 {
			name = fmt.Sprintf("routed@default(%.2f)", cssi.DefaultRouteTarget)
		}
		modes = append(modes, mode{name, cssi.SearchRequest{Approx: true, Route: true, RouteTarget: tg}, tg})
	}

	run := func(m mode, res [][]cssi.Result, st *cssi.Stats) error {
		dst := make([]cssi.Result, 0, k)
		for qi := range queries {
			req := m.req
			req.Query, req.K, req.Lambda = &queries[qi], k, lambda
			req.Dst, req.Stats = dst[:0], st
			dst, err = idx.Do(req)
			if err != nil {
				return err
			}
			if res != nil {
				res[qi] = append(res[qi][:0], dst...)
			}
		}
		return nil
	}

	micros := make([]float64, len(modes))
	for trial := 0; trial < routeTrials; trial++ {
		for mi, m := range modes {
			start := time.Now()
			if err := run(m, nil, nil); err != nil {
				return Table{}, err
			}
			el := float64(time.Since(start).Microseconds()) / float64(len(queries))
			if trial == 0 || el < micros[mi] {
				micros[mi] = el
			}
		}
	}

	t := Table{
		ID:    "route",
		Title: "Routed approximate mode vs CSSIA: the RouteTarget recall/latency curve",
		Note: fmt.Sprintf("routed visits clusters in predicted-probability order until the target probability "+
			"mass is covered; CSSIA is the paper's fixed early-termination heuristic; recall@%d against the "+
			"exact answer; min of %d alternating trials over %d queries", k, routeTrials, len(queries)),
		Header: []string{"mode", "µs/query", "speedup vs exact", "recall@" + itoa(k), "clusters examined/q"},
	}
	res := make([][]cssi.Result, len(queries))
	for mi, m := range modes {
		var st cssi.Stats
		if err := run(m, res, &st); err != nil {
			return Table{}, err
		}
		recall := 0.0
		for qi := range res {
			recall += 1 - cssi.ErrorRate(exact[qi], res[qi])
		}
		recall /= float64(len(res))
		t.Rows = append(t.Rows, []string{
			m.name,
			f1(micros[mi]),
			fmt.Sprintf("%.2fx", micros[0]/micros[mi]),
			f4(recall),
			f1(float64(st.ClustersExamined) / float64(len(queries))),
		})
	}
	return t, nil
}
