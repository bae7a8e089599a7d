// Command cssiquery demonstrates the full pipeline: it obtains a dataset
// (generated on the fly, or loaded from a datagen file), builds the
// CSSI/CSSIA index, and answers a k-NN query, printing both the exact and
// the approximate result with timing and pruning statistics.
//
// Query by example object:
//
//	cssiquery -kind yelp -size 20000 -qid 42 -k 10 -lambda 0.5
//
// Query by free text and location (dataset generated inline, so the
// embedding model is available to encode the text):
//
//	cssiquery -kind twitter -size 20000 -x 0.4 -y 0.6 -text "wb wc wd" -k 5
//
// With -trace the exact query additionally runs through the always-on
// tracer and its span tree is printed — the same trace a server
// retains in /debug/traces. With -server URL the query is sent to a
// running cssiserve instead (W3C traceparent attached) and the
// retained trace is fetched back from its /v1/debug/traces endpoint:
//
//	cssiquery -size 20000 -qid 42 -trace
//	cssiquery -size 20000 -qid 42 -trace -server http://localhost:8080
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/obs"
)

func main() {
	var (
		kind   = flag.String("kind", "twitter", "dataset kind: twitter or yelp")
		size   = flag.Int("size", 20000, "number of objects (when generating)")
		dim    = flag.Int("dim", 100, "embedding dimensionality (when generating)")
		seed   = flag.Uint64("seed", 1, "random seed")
		data   = flag.String("data", "", "load dataset from a datagen file instead of generating")
		qid    = flag.Int("qid", -1, "query by the object with this ID")
		qx     = flag.Float64("x", -1, "query longitude in [0,1] (with -text)")
		qy     = flag.Float64("y", -1, "query latitude in [0,1] (with -text)")
		qtext  = flag.String("text", "", "query text (requires a generated dataset)")
		k      = flag.Int("k", 10, "number of neighbors")
		lambda = flag.Float64("lambda", 0.5, "balance parameter λ (1 = purely spatial)")
		trace  = flag.Bool("trace", false, "record and print the exact query's span tree (the trace a server would retain in /debug/traces)")
		srvURL = flag.String("server", "", "with -trace: send the query to this cssiserve base URL and fetch the retained trace back")
	)
	flag.Parse()

	ds, err := obtainDataset(*data, *kind, *size, *dim, *seed)
	if err != nil {
		fail(err)
	}
	fmt.Printf("dataset: %d objects, n=%d\n", ds.Len(), ds.Dim)

	start := time.Now()
	idx, err := cssi.Build(ds, cssi.Options{Seed: *seed})
	if err != nil {
		fail(err)
	}
	fmt.Printf("index: %d hybrid clusters, built in %v\n\n", idx.NumClusters(), time.Since(start).Round(time.Millisecond))

	q, err := makeQuery(ds, *qid, *qx, *qy, *qtext)
	if err != nil {
		fail(err)
	}

	if *trace && *srvURL != "" {
		if err := traceAgainstServer(*srvURL, q, *k, *lambda); err != nil {
			fail(err)
		}
		return
	}

	var stExact cssi.Stats
	t0 := time.Now()
	exact, err := idx.Do(cssi.SearchRequest{Query: q, K: *k, Lambda: *lambda, Stats: &stExact})
	exactTime := time.Since(t0)
	if err != nil {
		fail(err)
	}

	var stApprox cssi.Stats
	t0 = time.Now()
	approx, err := idx.Do(cssi.SearchRequest{Query: q, K: *k, Lambda: *lambda, Approx: true, Stats: &stApprox})
	approxTime := time.Since(t0)
	if err != nil {
		fail(err)
	}

	fmt.Printf("CSSI (exact, %v): visited %d of %d objects (inter-pruned %d, intra-pruned %d)\n",
		exactTime.Round(time.Microsecond), stExact.VisitedObjects, ds.Len(), stExact.InterPruned, stExact.IntraPruned)
	printResults(ds, exact)
	fmt.Printf("\nCSSIA (approximate, %v): visited %d objects, result error %.2f%%\n",
		approxTime.Round(time.Microsecond), stApprox.VisitedObjects, 100*cssi.ErrorRate(exact, approx))
	printResults(ds, approx)

	if *trace {
		if err := traceLocally(idx, q, *k, *lambda); err != nil {
			fail(err)
		}
	}
}

// traceLocally reruns the exact query through the always-on tracer —
// the same machinery a server installs — and prints the retained span
// tree.
func traceLocally(idx *cssi.Index, q *cssi.Object, k int, lambda float64) error {
	sink := obs.NewSink(obs.SinkConfig{BufferSize: 4, SampleEvery: 1})
	idx.SetTraceSink(sink)
	defer idx.SetTraceSink(nil)
	reqID := obs.NewRequestID()
	if _, err := idx.Do(cssi.SearchRequest{Query: q, K: k, Lambda: lambda, RequestID: reqID}); err != nil {
		return err
	}
	t := sink.Ring().Lookup(reqID)
	if t == nil {
		return fmt.Errorf("trace %s not retained", reqID)
	}
	fmt.Println()
	printTrace(t)
	return nil
}

// traceAgainstServer sends the query to a running cssiserve with a
// fresh W3C traceparent attached, then fetches the trace the server
// retained for it from /v1/debug/traces/<request id>.
func traceAgainstServer(base string, q *cssi.Object, k int, lambda float64) error {
	body, err := json.Marshal(map[string]any{
		"x": q.X, "y": q.Y, "vec": q.Vec, "k": k, "lambda": lambda,
	})
	if err != nil {
		return err
	}
	traceID := obs.NewTraceID()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/search", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", obs.FormatTraceParent(traceID, obs.NewSpanID()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var env struct {
			Error struct{ Message string } `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&env)
		return fmt.Errorf("search: %s: %s", resp.Status, env.Error.Message)
	}
	reqID := resp.Header.Get("X-Request-Id")
	fmt.Printf("search ok  request=%s traceparent trace=%s\n", reqID, traceID)
	// The tail sampler may not have retained a fast normal query; the
	// trace ID joins the lookup either way.
	tr, err := http.Get(base + "/v1/debug/traces/" + reqID)
	if err != nil {
		return err
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		return fmt.Errorf("trace %s not retained by the server (tail sampling keeps slow/errored traces and 1-in-N of normal traffic)", reqID)
	}
	var envelope struct {
		Trace *obs.Trace `json:"trace"`
	}
	if err := json.NewDecoder(tr.Body).Decode(&envelope); err != nil || envelope.Trace == nil {
		return fmt.Errorf("malformed trace response: %v", err)
	}
	fmt.Println()
	printTrace(envelope.Trace)
	return nil
}

// printTrace renders one retained trace's span tree.
func printTrace(t *obs.Trace) {
	fmt.Printf("trace %s  request=%s  flavor=%s op=%s algo=%s k=%d lambda=%.2f\n",
		orDash(t.TraceID), t.RequestID, orDash(t.Flavor), orDash(t.Op), t.Algo, t.K, t.Lambda)
	fmt.Printf("  duration=%v gather=%v parallel=%v reason=%s kth=%.5f readEff=%.3f\n",
		time.Duration(t.DurationNanos).Round(time.Microsecond),
		time.Duration(t.GatherNanos).Round(time.Microsecond),
		t.Parallel, orDash(t.SampleReason), t.Total.KthDistance, t.ReadEfficiency)
	if t.Error != "" {
		fmt.Printf("  error=%s\n", t.Error)
	}
	for i := range t.Shards {
		sp := &t.Shards[i]
		st := &sp.Stats
		fmt.Printf("  span shard=%d objects=%d duration=%v\n", sp.Shard, sp.Objects,
			time.Duration(sp.DurationNanos).Round(time.Microsecond))
		fmt.Printf("       order=%v scan=%v delta=%v\n",
			time.Duration(st.OrderNanos).Round(time.Microsecond),
			time.Duration(st.ScanNanos).Round(time.Microsecond),
			time.Duration(st.DeltaNanos).Round(time.Microsecond))
		fmt.Printf("       visited=%d interPruned=%d intraPruned=%d clusters examined=%d pruned=%d readEff=%.3f\n",
			st.VisitedObjects, st.InterPruned, st.IntraPruned,
			st.ClustersExamined, st.ClustersPruned, sp.ReadEfficiency)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func obtainDataset(path, kind string, size, dim int, seed uint64) (*cssi.Dataset, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dataset.Load(f)
	}
	var k cssi.DatasetKind
	switch kind {
	case "twitter":
		k = cssi.TwitterLike
	case "yelp":
		k = cssi.YelpLike
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
	return cssi.GenerateDataset(cssi.DatasetConfig{Kind: k, Size: size, Dim: dim, Seed: seed})
}

func makeQuery(ds *cssi.Dataset, qid int, x, y float64, text string) (*cssi.Object, error) {
	if text != "" {
		if ds.Model == nil {
			return nil, fmt.Errorf("-text requires a generated dataset (loaded files carry no embedding model)")
		}
		if x < 0 || y < 0 {
			return nil, fmt.Errorf("-text requires -x and -y")
		}
		v, ok := ds.Model.EncodeDocument(text)
		if !ok {
			return nil, fmt.Errorf("query text has fewer than 3 in-vocabulary words")
		}
		return &cssi.Object{ID: 1 << 31, X: x, Y: y, Text: text, Vec: v}, nil
	}
	if qid < 0 {
		qid = 0
	}
	for i := range ds.Objects {
		if ds.Objects[i].ID == uint32(qid) {
			q := ds.Objects[i]
			fmt.Printf("query object %d at (%.3f,%.3f): %q\n\n", q.ID, q.X, q.Y, truncate(q.Text, 60))
			return &q, nil
		}
	}
	return nil, fmt.Errorf("object ID %d not found", qid)
}

func printResults(ds *cssi.Dataset, rs []cssi.Result) {
	for i, r := range rs {
		var text string
		var x, y float64
		for j := range ds.Objects {
			if ds.Objects[j].ID == r.ID {
				text = ds.Objects[j].Text
				x, y = ds.Objects[j].X, ds.Objects[j].Y
				break
			}
		}
		fmt.Printf("  %2d. id=%-8d d=%.5f (%.3f,%.3f) %s\n", i+1, r.ID, r.Dist, x, y, truncate(text, 50))
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "cssiquery: %v\n", err)
	os.Exit(1)
}
