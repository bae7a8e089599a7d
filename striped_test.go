package cssi

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scan"
)

// A striped exact read (core's stripe.go) splits one snapshot's frontier
// between the caller and an idle helper. These tests pin that it answers
// exactly what the one-stripe read does, that it cleans up after itself,
// and that only reads which observe nothing take it. Under the race
// detector core.SetStripeHook forces each schedule of the helper; other
// builds run whatever schedule the host produces.

// stripeSchedule is a schedule of the helper relative to the caller.
type stripeSchedule int

const (
	// helperFirst: the caller waits for the helper to start.
	helperFirst stripeSchedule = iota
	// helperAfterChunk: the helper starts once the caller has scanned
	// its first chunk (or its whole stripe, when that is one chunk).
	helperAfterChunk
	// helperWithdrawn: the helper wakes only after the caller withdrew
	// the job, and drops it.
	helperWithdrawn
	// helperFree: no constraint beyond the offer being taken.
	helperFree
	// The slot schedules: a warm-up read leaves its helper polling the
	// slot, held at one point until this read's offer is in the slot.
	//
	// helperPolled: the helper is held as it starts polling, then takes
	// the offer from the slot; the caller waits for it to start.
	helperPolled
	// helperPollClosing: the helper is held once its window has closed,
	// while it still counts as polling, so the offer lands after its
	// last look in the window; it must still take it, once.
	helperPollClosing
	// helperSlotWithdrawn: the helper sees the offer in the slot, then
	// waits until the caller has withdrawn it, and must drop it.
	helperSlotWithdrawn
	// The schedules of a read over several snapshots (forceSnapshots):
	// the helper claims the first snapshot, or the last one.
	helperFirstSnapshot
	helperLastSnapshot
)

var stripeSchedules = []stripeSchedule{helperFirst, helperAfterChunk, helperWithdrawn, helperPolled, helperPollClosing, helperSlotWithdrawn}

func (s stripeSchedule) String() string {
	return [...]string{"helper-first", "helper-after-chunk", "helper-withdrawn", "helper-free",
		"helper-polled", "helper-poll-closing", "helper-slot-withdrawn",
		"helper-first-snapshot", "helper-last-snapshot"}[s]
}

// slotted reports whether s needs a helper polling the slot.
func (s stripeSchedule) slotted() bool { return s >= helperPolled && s <= helperSlotWithdrawn }

// awaitPoint waits for ch, or fails the test after a generous timeout
// (a lost wake-up would otherwise hang it); it may run on any
// goroutine.
func awaitPoint(t *testing.T, ch <-chan struct{}, what string) {
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Errorf("stripe schedule: timed out waiting for %s", what)
	}
}

// warmPoller runs warm — a read that stripes — under a hook that waits
// for its helper to start and then holds that helper once it is polling
// the slot: as it starts polling, or for helperPollClosing once its
// window has closed. It returns when the helper is held, with the
// channel that releases it.
func warmPoller(t *testing.T, s stripeSchedule, warm func()) chan struct{} {
	t.Helper()
	started, held, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	at := core.StripeHelperPolling
	if s == helperPollClosing {
		at = core.StripeHelperPollEnd
	}
	var once sync.Once
	core.SetStripeHook(func(p core.StripePoint) {
		switch p {
		case core.StripeOffered:
			awaitPoint(t, started, "the warm-up helper to start")
		case core.StripeHelperStarted:
			close(started)
		case at:
			once.Do(func() {
				close(held)
				awaitPoint(t, release, "the forced offer")
			})
		}
	})
	warm()
	awaitPoint(t, held, "the warm-up helper to poll")
	return release
}

// stripeLog records the schedule points one read passed.
type stripeLog struct {
	offered, started atomic.Int32
}

// forceStripes installs a hook forcing s on the next striped read (each
// read loads the hook once, so install one per read) and returns its
// log; ok is false when hooks are not compiled in. A slot schedule first
// runs warm, a read that stripes, to leave a helper polling. extra, when
// non-nil, runs at every point after the schedule's own step.
func forceStripes(t *testing.T, s stripeSchedule, warm func(), extra func(core.StripePoint)) (*stripeLog, bool) {
	t.Helper()
	if !core.SetStripeHook(nil) {
		return nil, false
	}
	t.Cleanup(func() { core.SetStripeHook(nil) })
	// unhold releases the warm-up helper once this read's offer is out.
	var unhold chan struct{}
	if s.slotted() {
		unhold = warmPoller(t, s, warm)
	}
	var unheld sync.Once
	log := new(stripeLog)
	started, chunk, ended := make(chan struct{}), make(chan struct{}), make(chan struct{})
	// The caller's claims, touched by the caller's goroutine only.
	claims, released := 0, false
	release := func() {
		if !released {
			released = true
			close(chunk)
			awaitPoint(t, started, "the helper to start")
		}
	}
	hook := func(p core.StripePoint) {
		switch p {
		case core.StripeOffered:
			log.offered.Add(1)
			if unhold != nil {
				unheld.Do(func() { close(unhold) })
			}
		case core.StripeHelperStarted:
			log.started.Add(1)
		}
		switch s {
		case helperFirst, helperPolled, helperPollClosing:
			switch p {
			case core.StripeOffered:
				awaitPoint(t, started, "the helper to start")
			case core.StripeHelperStarted:
				close(started)
			}
		case helperWithdrawn, helperSlotWithdrawn:
			switch p {
			case core.StripeHelperWake:
				awaitPoint(t, ended, "the caller to end")
			case core.StripeCallerEnded:
				close(ended)
			}
		case helperAfterChunk:
			switch p {
			case core.StripeCallerClaim:
				if claims++; claims == 2 {
					release()
				}
			case core.StripeCallerEnding:
				release()
			case core.StripeHelperWake:
				awaitPoint(t, chunk, "the caller's first chunk")
			case core.StripeHelperStarted:
				close(started)
			}
		}
		if extra != nil {
			extra(p)
		}
	}
	core.SetStripeHook(hook)
	return log, true
}

// check reports whether the read the log saw followed s.
func (l *stripeLog) check(t *testing.T, ctx string, s stripeSchedule) {
	t.Helper()
	wantStarted := int32(1)
	if s == helperWithdrawn || s == helperSlotWithdrawn {
		wantStarted = 0
	}
	if l.offered.Load() != 1 || l.started.Load() != wantStarted {
		t.Fatalf("%s: %d offers taken, helper started %d times; want 1 and %d", ctx, l.offered.Load(), l.started.Load(), wantStarted)
	}
}

// stripeTarget is one one-shard index a striped read can serve from,
// and the snapshot it publishes.
type stripeTarget struct {
	name string
	do   func(ctx context.Context, req SearchRequest) ([]Result, error)
	snap func() *snapshot
}

func indexTarget(name string, x *Index) stripeTarget {
	return stripeTarget{name, x.DoContext, func() *snapshot { return current(x) }}
}

// withOverlay writes 40 of overlayOps' ops to x, below the compaction
// threshold, so that its snapshot holds delta rows and tombstones.
func withOverlay(t *testing.T, x *Index, ds *Dataset) *Index {
	t.Helper()
	if err := x.ApplyBatch(overlayOps(ds, 40)); err != nil {
		t.Fatal(err)
	}
	return x
}

// stripeDataset is testDataset plus the inputs a striped read can get
// wrong: copies of one object, so that ties straddle the k-th rank of a
// query near it; objects sharing that point but not its vector, which
// land in other clusters and so tie across stripes at λ = 1; and an
// object with a zero vector.
func stripeDataset(t *testing.T) (*Dataset, []Object) {
	t.Helper()
	ds := testDataset(t, 700)
	queries := ds.SampleQueries(4, 31)
	twin := ds.Objects[17]
	objs := slices.Clone(ds.Objects)
	for i := 0; i < 3; i++ {
		twin.ID = uint32(800_000 + i)
		objs = append(objs, twin)
	}
	for i := 0; i < 12; i++ {
		o := twin
		o.ID, o.Vec = uint32(700_000+i), ds.Objects[100+41*i].Vec
		objs = append(objs, o)
	}
	beside := twin
	beside.X += 1e-3
	// One query sits on the shared point, where at λ = 1 objects of
	// different clusters tie at distance 0, their clusters' bound.
	queries = append(queries, twin, beside)
	// The zero vector gets a point of its own.
	zero := ds.Objects[29]
	zero.ID, zero.Vec = 900_000, make([]float32, ds.Dim)
	zero.X, zero.Y = 1-zero.X, 1-zero.Y
	objs = append(objs, zero)
	queries = append(queries, zero)
	return &Dataset{Objects: objs, Dim: ds.Dim}, queries
}

// TestStripedExactEquivalence pins the striped exact read to the
// one-stripe read and the linear scan, ID for ID and distance for
// distance, on a built index ("bare") and on a one-shard index ("P=1")
// whose snapshot holds overlay delta rows and tombstones, for λ ∈ {0, 0.5, 1},
// k ∈ {1, 10, > n}, the k-NN, range and window shapes, ties at the k-th
// rank and at the radius, and a zero vector — under each forced schedule
// of the helper where hooks exist.
func TestStripedExactEquivalence(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a striped read needs GOMAXPROCS >= 2")
	}
	ds, queries := stripeDataset(t)
	bare := mustBuild(t, ds, Options{Seed: 37})
	s := mustBuildSharded(t, ds, 1, Options{Seed: 37})
	live := make(map[uint32]Object, ds.Len())
	for _, o := range ds.Objects {
		live[o.ID] = o
	}
	// Writes below the compaction threshold: delta rows, tombstones on
	// base rows, and more copies of the twin among the delta rows.
	for _, op := range overlayOps(ds, 60) {
		if err := s.ApplyBatch([]Op{op}); err != nil {
			t.Fatal(err)
		}
		switch op.Kind {
		case OpDelete:
			delete(live, op.ID)
		default:
			live[op.Object.ID] = op.Object
		}
	}
	twin := live[800_000]
	for i := 0; i < 2; i++ {
		twin.ID = uint32(850_000 + i)
		if err := s.Insert(twin); err != nil {
			t.Fatal(err)
		}
		live[twin.ID] = twin
	}
	if st := s.ShardStats()[0]; st.DeltaOps == 0 {
		t.Fatal("the shard buffered no delta ops")
	}
	liveObjs := make([]Object, 0, len(live))
	for _, o := range live {
		liveObjs = append(liveObjs, o)
	}

	base := make(map[uint32]Object, ds.Len())
	for _, o := range ds.Objects {
		base[o.ID] = o
	}
	for _, tc := range []struct {
		target stripeTarget
		oracle *scan.Scanner
		objs   map[uint32]Object
	}{
		{indexTarget("bare", bare), scan.New(ds, current(bare).space), base},
		{indexTarget("P=1", s), scan.New(&Dataset{Objects: liveObjs, Dim: ds.Dim}, current(bare).space), live},
	} {
		t.Run(tc.target.name, func(t *testing.T) {
			snap := tc.target.snap()
			n := snap.core.Len()
			for qi := range queries {
				q := &queries[qi]
				for _, lambda := range []float64{0, 0.5, 1} {
					// Every shape's answer is a prefix of the scan's full
					// ranking, filtered; the radius ties its 8th distance.
					all := tc.oracle.Search(q, n, lambda, nil)
					r := all[7].Dist
					w := Window{LoX: q.X - 0.2, LoY: q.Y - 0.2, HiX: q.X + 0.2, HiY: q.Y + 0.2}
					for _, shape := range []struct {
						name   string
						radius *float64
						window *Window
					}{{"knn", nil, nil}, {"range", &r, nil}, {"window", nil, &w}} {
						for _, k := range []int{1, 10, n + 5} {
							ctx := fmt.Sprintf("q%d λ=%v %s k=%d", qi, lambda, shape.name, k)
							var want []Result
							for _, res := range all {
								o := tc.objs[res.ID]
								if len(want) < k && (shape.radius == nil || res.Dist <= r) &&
									(shape.window == nil || o.X >= w.LoX && o.X <= w.HiX && o.Y >= w.LoY && o.Y <= w.HiY) {
									want = append(want, res)
								}
							}
							opts := core.SearchOptions{Radius: shape.radius, Window: shape.window}
							equalResults(t, ctx+" one-stripe vs scan", want, snap.core.SearchOptionsInto(nil, q, k, lambda, opts, nil))
							req := SearchRequest{Query: q, K: k, Lambda: lambda, Radius: shape.radius, Window: shape.window}
							got, err := tc.target.do(context.Background(), req)
							if err != nil {
								t.Fatal(err)
							}
							equalResults(t, ctx+" Do", want, got)
							for _, sched := range stripeSchedules {
								warm := func() { tc.target.do(context.Background(), req) }
								log, ok := forceStripes(t, sched, warm, nil)
								if !ok {
									break
								}
								got, err := tc.target.do(context.Background(), req)
								if err != nil {
									t.Fatal(err)
								}
								sctx := fmt.Sprintf("%s %v", ctx, sched)
								log.check(t, sctx, sched)
								equalResults(t, sctx, want, got)
							}
							core.SetStripeHook(nil)
						}
					}
				}
			}
		})
	}
}

// TestStripedHelperPanicReraised: a panic inside the helper's stripe
// surfaces on the caller, once the helper is done.
func TestStripedHelperPanicReraised(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a striped read needs GOMAXPROCS >= 2")
	}
	ds := testDataset(t, 400)
	x := mustBuild(t, ds, Options{Seed: 41})
	q := ds.Objects[0]
	started := make(chan struct{})
	_, ok := forceStripes(t, helperFree, nil, func(p core.StripePoint) {
		switch p {
		case core.StripeHelperStarted:
			close(started)
			panic("helper stripe")
		case core.StripeCallerEnding:
			<-started
		}
	})
	if !ok {
		t.Skip("stripe hooks are compiled into race builds only")
	}
	defer func() {
		if r := recover(); r != "helper stripe" {
			t.Fatalf("recovered %v, want the helper's panic", r)
		}
	}()
	mustDo(x, SearchRequest{Query: &q, K: 10, Lambda: 0.5})
	t.Fatal("Search returned")
}

// TestStripedReadsLeaveNoGoroutines: helpers are standing goroutines,
// at most GOMAXPROCS−1 of them, so a burst of reads — sequential and
// concurrent — leaves the goroutine count where the first read left it.
func TestStripedReadsLeaveNoGoroutines(t *testing.T) {
	ds := testDataset(t, 500)
	x := mustBuild(t, ds, Options{Seed: 43})
	queries := ds.Objects[:64]
	for i := 0; i < 4; i++ {
		mustDo(x, SearchRequest{Query: &queries[i], K: 10, Lambda: 0.5})
	}
	base := runtime.NumGoroutine()
	for i := range queries {
		mustDo(x, SearchRequest{Query: &queries[i], K: 10, Lambda: 0.5})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queries {
				mustDo(x, SearchRequest{Query: &queries[(i+g*16)%len(queries)], K: 10, Lambda: 0.5})
			}
		}()
	}
	wg.Wait()
	// A burst goroutine past wg.Done may not have exited yet (the helper
	// can hold the other core for its polling window): let the count
	// settle. A goroutine that leaked never leaves it.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > base {
		t.Fatalf("%d goroutines after the burst, %d before", n, base)
	}
}

// TestStripedBudget: a budget that fires in either stripe makes the
// answer partial — or, for a cancelled context, the error — and the read
// returns promptly.
func TestStripedBudget(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a striped read needs GOMAXPROCS >= 2")
	}
	ds := testDataset(t, 600)
	x := mustBuild(t, ds, Options{Seed: 47})
	q := ds.Objects[3]
	n := x.Len()
	prompt := func(t *testing.T, start time.Time) {
		t.Helper()
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("the cut read took %v", d)
		}
	}

	t.Run("deadline", func(t *testing.T) {
		var meta ResponseMeta
		start := time.Now()
		if _, err := x.Do(SearchRequest{Query: &q, K: n, Lambda: 0.5, Deadline: time.Nanosecond, Meta: &meta}); err != nil {
			t.Fatal(err)
		}
		prompt(t, start)
		if !meta.Partial {
			t.Fatal("an expired deadline gave a complete answer")
		}
	})

	// The helper starts only after the caller's stripe has ended, and the
	// cancel fires as it starts: only the helper's stripe can see it.
	t.Run("cancel-in-helper", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_, ok := forceStripes(t, helperAfterChunk, nil, func(p core.StripePoint) {
			if p == core.StripeHelperStarted {
				cancel()
			}
		})
		if !ok {
			t.Skip("stripe hooks are compiled into race builds only")
		}
		start := time.Now()
		_, err := x.DoContext(ctx, SearchRequest{Query: &q, K: n, Lambda: 0.5})
		prompt(t, start)
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})

	t.Run("fired-in-helper", func(t *testing.T) {
		fired := firedCtx{context.Background(), make(chan struct{})}
		_, ok := forceStripes(t, helperAfterChunk, nil, func(p core.StripePoint) {
			if p == core.StripeHelperStarted {
				close(fired.done)
			}
		})
		if !ok {
			t.Skip("stripe hooks are compiled into race builds only")
		}
		var meta ResponseMeta
		start := time.Now()
		if _, err := x.DoContext(fired, SearchRequest{Query: &q, K: n, Lambda: 0.5, Meta: &meta}); err != nil {
			t.Fatal(err)
		}
		prompt(t, start)
		if !meta.Partial {
			t.Fatal("a cut in the helper's stripe gave a complete answer")
		}
	})
}

// TestStripedNeverAtOneProc: under GOMAXPROCS(1) no read offers a
// helper a stripe, and the answers stand.
func TestStripedNeverAtOneProc(t *testing.T) {
	ds := testDataset(t, 400)
	x := mustBuild(t, ds, Options{Seed: 53})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	log, hooked := forceStripes(t, helperFree, nil, nil)
	for i := 0; i < 20; i++ {
		q := ds.Objects[i]
		want := current(x).core.SearchOptionsInto(nil, &q, 10, 0.5, core.SearchOptions{}, nil)
		equalResults(t, fmt.Sprintf("q%d", i), want, mustDo(x, SearchRequest{Query: &q, K: 10, Lambda: 0.5}))
	}
	if hooked && log.offered.Load() != 0 {
		t.Fatalf("%d reads offered a stripe under GOMAXPROCS(1)", log.offered.Load())
	}
}

// TestStripedNeverInBatch pins the batch rule: a batch's pool already
// occupies the processors, so each of its reads is held to one stripe.
// An unobserved exact DoBatch with a second scheduler thread to spare
// offers no stripe, and answers what the one-stripe reads do.
func TestStripedNeverInBatch(t *testing.T) {
	ds := testDataset(t, 400)
	queries := ds.SampleQueries(16, 67)
	x := mustBuild(t, ds, Options{Seed: 53})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	log, hooked := forceStripes(t, helperFree, nil, nil)
	got, err := x.DoBatch(BatchSearchRequest{Queries: queries, K: 10, Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		want := current(x).core.SearchOptionsInto(nil, &queries[i], 10, 0.5, core.SearchOptions{}, nil)
		equalResults(t, fmt.Sprintf("q%d", i), want, got[i])
	}
	if hooked && log.offered.Load() != 0 {
		t.Fatalf("%d batch reads offered a stripe", log.offered.Load())
	}
}

// TestStripedCountedReadsOneStripe pins the counted-read rule: a request
// that asks for work counters — Stats, Explain or Trace — gets the
// one-stripe read, so its counters equal core.SearchOptionsInto's
// one-stripe read of the same query, on a built index ("bare") and on
// one holding overlay rows ("P=1").
func TestStripedCountedReadsOneStripe(t *testing.T) {
	ds := testDataset(t, 600)
	for _, target := range []stripeTarget{
		indexTarget("bare", mustBuild(t, ds, Options{Seed: 59})),
		indexTarget("P=1", withOverlay(t, mustBuild(t, ds, Options{Seed: 59}), ds)),
	} {
		t.Run(target.name, func(t *testing.T) {
			log, hooked := forceStripes(t, helperFree, nil, nil)
			for qi, q := range ds.SampleQueries(8, 61) {
				var want Stats
				wantRes := target.snap().core.SearchOptionsInto(nil, &q, 10, 0.5, core.SearchOptions{}, &want)
				var st Stats
				var es ExplainStats
				var tr SearchTrace
				for _, req := range []SearchRequest{
					{Query: &q, K: 10, Lambda: 0.5, Stats: &st},
					{Query: &q, K: 10, Lambda: 0.5, Explain: &es},
					{Query: &q, K: 10, Lambda: 0.5, Trace: &tr},
				} {
					got, err := target.do(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					equalResults(t, fmt.Sprintf("q%d", qi), wantRes, got)
				}
				if st != want || es.Stats != want || tr.Total.Stats != want {
					t.Fatalf("q%d: Stats %+v / Explain %+v / Trace %+v, one-stripe read %+v", qi, st, es.Stats, tr.Total.Stats, want)
				}
			}
			if hooked && log.offered.Load() != 0 {
				t.Fatalf("%d counted reads offered a stripe", log.offered.Load())
			}
		})
	}
}

// TestStripedTiePushes pins concurrent pushes into a striped read's one
// heap: rows tying the k-th distance, pushed by both stripes, still give
// the one-stripe read's answer and the scan's, ID for ID and distance
// for distance, under every schedule the hooks force, parked or polling.
// Dozens of objects share one point but not a vector (λ = 1), or one
// vector but not a point (λ = 0), so their clusters differ and span
// several frontier chunks. Where the helper starts before the caller
// walks, the first stripe to reach a push waits there until the other
// reaches one too: the heap is still empty, so the other stripe's first
// scanned cluster gets there, and both stripes push on every read. Under
// helper-after-chunk the caller's first chunk pushes before the helper
// starts, and a withdrawn helper must not push at all.
func TestStripedTiePushes(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a striped read needs GOMAXPROCS >= 2")
	}
	base := testDataset(t, 600)
	objs := slices.Clone(base.Objects)
	at, like := base.Objects[17], base.Objects[23]
	const ties = 48
	for i := 0; i < ties; i++ {
		o := at
		o.ID, o.Vec = uint32(700_000+(i*7)%ties), base.Objects[5+12*i].Vec
		objs = append(objs, o)
		o = like
		o.ID, o.X, o.Y = uint32(710_000+(i*7)%ties), base.Objects[7+12*i].X, base.Objects[7+12*i].Y
		objs = append(objs, o)
	}
	ds := &Dataset{Objects: objs, Dim: base.Dim}
	x := mustBuild(t, ds, Options{Seed: 67})
	oracle := scan.New(ds, current(x).space)
	for _, tc := range []struct {
		q      Object
		lambda float64
	}{{at, 1}, {like, 0}} {
		for _, k := range []int{1, 10, 40} {
			ctx := fmt.Sprintf("λ=%v k=%d", tc.lambda, k)
			want := oracle.Search(&tc.q, k, tc.lambda, nil)
			if want[len(want)-1].Dist != 0 {
				t.Fatalf("%s: the scan's answer %v is not all ties", ctx, want)
			}
			equalResults(t, ctx+" one-stripe", want, current(x).core.SearchOptionsInto(nil, &tc.q, k, tc.lambda, core.SearchOptions{}, nil))
			req := SearchRequest{Query: &tc.q, K: k, Lambda: tc.lambda}
			equalResults(t, ctx+" Do", want, mustDo(x, req))
			for _, sched := range stripeSchedules {
				// pushes counts each stripe's pushes, caller first;
				// arrived[i] closes at stripe i's first.
				var pushes [2]atomic.Int32
				arrived := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
				var once [2]sync.Once
				meet := sched == helperFirst || sched == helperPolled || sched == helperPollClosing
				log, ok := forceStripes(t, sched, func() { mustDo(x, req) }, func(p core.StripePoint) {
					i := 0
					switch p {
					case core.StripeCallerPush:
					case core.StripeHelperPush:
						i = 1
					default:
						return
					}
					pushes[i].Add(1)
					once[i].Do(func() { close(arrived[i]) })
					if meet {
						awaitPoint(t, arrived[1-i], "the other stripe's first push")
					}
				})
				if !ok {
					break
				}
				got := mustDo(x, req)
				sctx := fmt.Sprintf("%s %v", ctx, sched)
				log.check(t, sctx, sched)
				equalResults(t, sctx, want, got)
				caller, helper := pushes[0].Load(), pushes[1].Load()
				switch {
				case sched == helperWithdrawn || sched == helperSlotWithdrawn:
					if helper != 0 {
						t.Fatalf("%s: a withdrawn helper pushed %d rows", sctx, helper)
					}
				case caller == 0 || meet && helper == 0:
					t.Fatalf("%s: %d caller pushes, %d helper pushes", sctx, caller, helper)
				}
			}
			core.SetStripeHook(nil)
		}
	}
}
