package serve

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mplgo/internal/chaos"
	"mplgo/internal/core"
	"mplgo/internal/mem"
	"mplgo/internal/telemetry"
	"mplgo/internal/trace"
)

// startServer runs a Server's dispatcher as the root task of a fresh
// runtime and returns it with a stop function that drains and reports the
// runtime's exit error.
func startServer(cfg core.Config, scfg Config) (*Server, func() error) {
	rt := core.New(cfg)
	srv := New(rt, scfg)
	done := make(chan error, 1)
	go func() {
		_, err := rt.Run(srv.Run)
		done <- err
	}()
	return srv, func() error {
		srv.Close()
		return <-done
	}
}

// churnRequest is the standard test workload: allocate, publish, read back.
func churnRequest(n int) func(*core.Task) mem.Value {
	return func(t *core.Task) mem.Value {
		f := t.NewFrame(1)
		defer f.Pop()
		f.Set(0, t.AllocArray(8, mem.Int(0)).Value())
		var sum int64
		for i := 0; i < n; i++ {
			t.Write(f.Ref(0), i%8, mem.Int(int64(i)))
			sum += t.Read(f.Ref(0), i%8).AsInt()
			t.AllocArray(16, mem.Int(sum)) // garbage
		}
		return mem.Int(sum)
	}
}

// slowRequest allocates until its fault domain dies.
func slowRequest(t *core.Task) mem.Value {
	for t.ScopeErr() == nil {
		t.AllocArray(16, mem.Int(1))
	}
	return mem.Nil
}

func TestServeCompletesRequests(t *testing.T) {
	srv, stop := startServer(
		core.Config{Procs: 4, HeapBudgetWords: 2048},
		Config{MaxConcurrent: 4},
	)
	const n = 40
	var wg sync.WaitGroup
	errs := make([]error, n)
	vals := make([]int64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Retry sheds: the point here is completion accounting, not
			// admission pressure.
			for {
				v, err := srv.Submit(churnRequest(50))
				if err == nil {
					vals[i] = v.AsInt()
					return
				}
				if !errors.Is(err, core.ErrShed) {
					errs[i] = err
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	if err := stop(); err != nil {
		t.Fatalf("runtime exit: %v", err)
	}
	want := churnSum(50)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if vals[i] != want {
			t.Fatalf("request %d: result %d, want %d", i, vals[i], want)
		}
	}
	if got := srv.Stats.Completed.Load(); got != n {
		t.Fatalf("completed = %d, want %d", got, n)
	}
	if err := srv.Audit(); err != nil {
		t.Fatal(err)
	}
}

// churnSum is churnRequest's expected result, computed directly.
func churnSum(n int) int64 {
	var slots [8]int64
	var sum int64
	for i := 0; i < n; i++ {
		slots[i%8] = int64(i)
		sum += slots[i%8]
	}
	return sum
}

func TestServeDeadlineTyped(t *testing.T) {
	srv, stop := startServer(
		core.Config{Procs: 2, HeapBudgetWords: 1024},
		Config{MaxConcurrent: 2, Deadline: 2 * time.Millisecond},
	)
	_, err := srv.Submit(slowRequest)
	if !errors.Is(err, core.ErrDeadlineExceeded) {
		t.Fatalf("slow request error = %v, want ErrDeadlineExceeded", err)
	}
	v, err := srv.Submit(func(t *core.Task) mem.Value { return mem.Int(5) })
	if err != nil || v.AsInt() != 5 {
		t.Fatalf("fast request after a deadline kill: v=%v err=%v", v, err)
	}
	if stopErr := stop(); stopErr != nil {
		t.Fatalf("runtime exit: %v", stopErr)
	}
	if n := srv.Stats.DeadlineExceeded.Load(); n != 1 {
		t.Fatalf("deadline_exceeded = %d, want 1", n)
	}
	if err := srv.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestServeBudgetTyped(t *testing.T) {
	srv, stop := startServer(
		core.Config{Procs: 2, HeapBudgetWords: 1024},
		Config{MaxConcurrent: 2, BudgetWords: 2048},
	)
	_, err := srv.Submit(slowRequest)
	if !errors.Is(err, core.ErrHeapLimit) {
		t.Fatalf("greedy request error = %v, want ErrHeapLimit", err)
	}
	if stopErr := stop(); stopErr != nil {
		t.Fatalf("runtime exit: %v (a scope budget must not cancel the runtime)", stopErr)
	}
	if n := srv.Stats.BudgetExceeded.Load(); n != 1 {
		t.Fatalf("budget_exceeded = %d, want 1", n)
	}
	if err := srv.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestServeShedsTyped(t *testing.T) {
	// Deterministic overload: one token held by a blocker request, one
	// queue slot filled behind it — every further Submit must shed with
	// the typed overload response, immediately.
	srv, stop := startServer(
		core.Config{Procs: 2, HeapBudgetWords: 2048},
		Config{MaxConcurrent: 1, QueueDepth: 1, RetryAfter: 3 * time.Millisecond},
	)
	blocking := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := srv.Submit(func(t *core.Task) mem.Value {
			close(blocking)
			<-release
			return mem.Int(1)
		}); err != nil {
			t.Errorf("blocker request: %v", err)
		}
	}()
	<-blocking // the token is held; the dispatcher is mid-batch
	queued := make(chan struct{})
	go func() {
		defer wg.Done()
		close(queued)
		if _, err := srv.Submit(func(t *core.Task) mem.Value { return mem.Int(2) }); err != nil {
			t.Errorf("queued request: %v", err)
		}
	}()
	<-queued
	// Give the queued Submit a moment to land in the buffer.
	for i := 0; len(srv.queue) == 0 && i < 1000; i++ {
		time.Sleep(100 * time.Microsecond)
	}
	const n = 8
	for i := 0; i < n; i++ {
		_, err := srv.Submit(churnRequest(10))
		var ov *Overload
		if !errors.As(err, &ov) {
			t.Fatalf("flood request %d: error = %v, want *Overload", i, err)
		}
		if !errors.Is(err, core.ErrShed) {
			t.Fatalf("*Overload does not unwrap to ErrShed: %v", err)
		}
		if ov.RetryAfter != 3*time.Millisecond {
			t.Fatalf("RetryAfter = %v, want 3ms", ov.RetryAfter)
		}
	}
	close(release)
	wg.Wait()
	if err := stop(); err != nil {
		t.Fatalf("runtime exit: %v", err)
	}
	if got := srv.Stats.Shed.Load(); got != n {
		t.Fatalf("shed = %d, want %d", got, n)
	}
	if got := srv.Stats.Completed.Load(); got != 2 {
		t.Fatalf("completed = %d, want 2", got)
	}
	if err := srv.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestServePanicNeverStrandsWaiters pins the liveness contract when a
// request body panics. A single-request batch runs inline on the
// dispatcher task, so the panic unwinds through Run itself — past the
// batch sweep — and historically would have stranded every blocked Submit
// forever. Now: the panicking Submit (and any concurrent one) resolves
// with the typed *core.PanicError, the runtime records the same error,
// later Submits shed with "closing", and the post-mortem Audit balances.
func TestServePanicNeverStrandsWaiters(t *testing.T) {
	srv, stop := startServer(
		core.Config{Procs: 2, HeapBudgetWords: 2048},
		// MaxConcurrent 1 forces batches of one — the inline-execution path.
		Config{MaxConcurrent: 1, QueueDepth: 8},
	)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// No retry loop: once the dispatcher dies the server sheds
			// "closing" forever, so a shed is a terminal answer here — the
			// assertion is that every Submit returns *something*.
			_, errs[i] = srv.Submit(func(t *core.Task) mem.Value {
				if i == 0 {
					panic("request blew up")
				}
				return churnRequest(50)(t)
			})
		}(i)
	}
	wg.Wait() // the real assertion: no Submit hangs
	var pe *core.PanicError
	if !errors.As(errs[0], &pe) {
		t.Fatalf("panicking request: error = %v, want *core.PanicError", errs[0])
	}
	for i, err := range errs[1:] {
		if err != nil && !errors.As(err, &pe) && !errors.Is(err, core.ErrShed) {
			t.Fatalf("concurrent request %d: unexpected error type %v", i+1, err)
		}
	}
	runErr := stop()
	if !errors.As(runErr, &pe) {
		t.Fatalf("runtime exit = %v, want *core.PanicError", runErr)
	}
	if _, err := srv.Submit(churnRequest(1)); !errors.Is(err, core.ErrShed) {
		t.Fatalf("post-mortem Submit: error = %v, want typed shed", err)
	}
	if err := srv.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestServeFootprintFlatAcrossBursts is the flat-footprint audit: residency
// after each burst drains must stay flat — not grow with the number of
// bursts served. A churn request publishes nothing outside its own heap, so
// its heap drops at the batch's join; what a drained burst may leave is the
// dispatcher's own chunks from a batch of one, which runs inline in the
// dispatcher's heap: a to-space chunk and at most two bump chunks.
//
// Residency is sampled once the last batch has joined (TokensInUse back to
// zero). Submit returns as soon as its request resolves, inside the batch,
// so sampling when the wave's Submits return raced the in-flight request
// heaps of the last batch — and, while joins still merged those heaps, the
// garbage merged into the dispatcher's heap that no concurrent cycle had
// swept yet: the last wave's spikes.
func TestServeFootprintFlatAcrossBursts(t *testing.T) {
	srv, stop := startServer(
		core.Config{Procs: 4, HeapBudgetWords: 512, CGC: true, CGCThresholdWords: 1 << 12},
		Config{MaxConcurrent: 4},
	)
	wave := func() {
		var wg sync.WaitGroup
		for i := 0; i < 24; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					_, err := srv.Submit(churnRequest(200))
					if err == nil {
						return
					}
					if !errors.Is(err, core.ErrShed) {
						t.Errorf("wave request: %v", err)
						return
					}
					time.Sleep(200 * time.Microsecond)
				}
			}()
		}
		wg.Wait()
	}
	const waves = 5
	live := make([]int64, waves)
	for w := 0; w < waves; w++ {
		wave()
		for srv.Stats.TokensInUse.Load() != 0 {
			time.Sleep(100 * time.Microsecond)
		}
		live[w] = srv.rt.Space().LiveWords()
	}
	if err := stop(); err != nil {
		t.Fatalf("runtime exit: %v", err)
	}
	if err := srv.Audit(); err != nil {
		t.Fatal(err)
	}
	// A wave allocates about 24 × 3 400 words; linear accumulation would
	// pass the bound in the first wave.
	const inline = mem.MinChunkWords + 2*mem.ChunkWords
	for _, n := range live {
		if n > inline {
			t.Fatalf("footprint grew across bursts: live words per wave %v", live)
		}
	}
}

func TestServeWatermarkSheds(t *testing.T) {
	// An absurdly low live-words watermark: everything sheds, nothing runs.
	srv, stop := startServer(
		core.Config{Procs: 1},
		Config{MaxConcurrent: 1, MaxLiveWords: 1},
	)
	// The root heap exists but is near-empty; trip it with a sentinel
	// request admitted before the watermark config matters? No — the
	// watermark reads the space gauge, which counts chunk words as soon as
	// the dispatcher's runtime materializes its root allocator chunk. Force
	// that with one successful pre-watermark admission path: the watermark
	// is checked per-Submit, so the first Submit may pass on a fresh space.
	var sawShed bool
	for i := 0; i < 8; i++ {
		_, err := srv.Submit(churnRequest(100))
		if err != nil {
			var ov *Overload
			if !errors.As(err, &ov) || !strings.Contains(ov.Reason, "watermark") {
				t.Fatalf("expected a watermark shed, got %v", err)
			}
			sawShed = true
			break
		}
	}
	if err := stop(); err != nil {
		t.Fatalf("runtime exit: %v", err)
	}
	if !sawShed {
		t.Fatal("live-words watermark of 1 never shed")
	}
}

func TestServeCloseShedsNewSubmits(t *testing.T) {
	srv, stop := startServer(core.Config{Procs: 1}, Config{})
	if err := stop(); err != nil {
		t.Fatalf("runtime exit: %v", err)
	}
	_, err := srv.Submit(func(t *core.Task) mem.Value { return mem.Nil })
	var ov *Overload
	if !errors.As(err, &ov) || ov.Reason != "closing" {
		t.Fatalf("post-close Submit error = %v, want closing overload", err)
	}
}

// TestServeMetricsSource wires the Counters into the telemetry exposition
// and checks the serve metrics appear beside the runtime's.
func TestServeMetricsSource(t *testing.T) {
	rt := core.New(core.Config{Procs: 1})
	srv := New(rt, Config{})
	srv.Stats.Admitted.Add(3)
	srv.Stats.Shed.Add(2)
	var buf bytes.Buffer
	if err := telemetry.WriteMetrics(&buf, rt, &srv.Stats); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"mplgo_requests_admitted_total 3",
		"mplgo_requests_shed_total 2",
		"mplgo_requests_deadline_exceeded_total 0",
		"mplgo_tokens_in_use 0",
		"mplgo_steals_total", // runtime metrics still present
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Exposition format: every line is a comment or "name value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if parts := strings.Fields(line); len(parts) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

// TestServeCountersReachTrace is the satellite's end-to-end check: the
// dispatcher samples the admission counters into the trace rings, and they
// survive the Chrome export + summary round trip by name.
func TestServeCountersReachTrace(t *testing.T) {
	tracer := trace.NewTracer(2, 1<<14)
	rt := core.New(core.Config{Procs: 2, HeapBudgetWords: 2048, Tracer: tracer})
	// The deadline is the slow request's run time; at 2 ms the churn request
	// missed it about once in 3 000 runs on an idle box.
	srv := New(rt, Config{MaxConcurrent: 2, Deadline: 20 * time.Millisecond})
	trace.Enable()
	done := make(chan error, 1)
	go func() {
		_, err := rt.Run(srv.Run)
		done <- err
	}()
	if _, err := srv.Submit(churnRequest(50)); err != nil {
		t.Fatalf("churn request: %v", err)
	}
	if _, err := srv.Submit(slowRequest); !errors.Is(err, core.ErrDeadlineExceeded) {
		t.Fatalf("slow request error = %v, want ErrDeadlineExceeded", err)
	}
	srv.Close()
	if err := <-done; err != nil {
		t.Fatalf("runtime exit: %v", err)
	}
	trace.Disable()

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tracer); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	// tokens_in_use is exported as a track even when it sampled zero.
	if !strings.Contains(raw, `"tokens_in_use"`) {
		t.Fatal("tokens_in_use track missing from Chrome export")
	}
	s, err := trace.Summarize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []trace.Counter{trace.CtrRequestsAdmitted, trace.CtrDeadlineExceeded} {
		if max, ok := s.CounterMax[c]; !ok || max == 0 {
			t.Fatalf("%v missing from trace summary: %v", c, s.CounterMax)
		}
	}
}

// --- chaos soaks -----------------------------------------------------------

func chaosSeeds(t *testing.T) []int64 {
	if env := os.Getenv("CHAOS_SEEDS"); env != "" {
		var seeds []int64
		for _, s := range strings.Split(env, ",") {
			n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				t.Fatalf("CHAOS_SEEDS: bad seed %q: %v", s, err)
			}
			seeds = append(seeds, n)
		}
		return seeds
	}
	return []int64{1, 2, 3, 5, 8, 13, 21, 42}
}

// dumpChaosFailure mirrors internal/core's failure artifact: seed, config,
// error, injection report, and the serve counters, written to
// $CHAOS_DUMP_DIR for the CI job to upload.
func dumpChaosFailure(t *testing.T, rt *core.Runtime, srv *Server, seed int64, runErr error) {
	dir := os.Getenv("CHAOS_DUMP_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos dump: %v", err)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "test: %s\nseed: %d\nerror: %v\n\n%s\n", t.Name(), seed, runErr, rt.ChaosReport())
	srv.Stats.AppendMetrics(func(name, _, _ string, val int64) {
		fmt.Fprintf(&b, "%s %d\n", name, val)
	})
	if ierr := rt.CheckInvariants(); ierr != nil {
		fmt.Fprintf(&b, "\ninvariant dump:\n%v\n", ierr)
	}
	name := filepath.Join(dir, fmt.Sprintf("chaos-seed-%d-%s.txt",
		seed, strings.ReplaceAll(t.Name(), "/", "_")))
	if err := os.WriteFile(name, []byte(b.String()), 0o644); err != nil {
		t.Logf("chaos dump: %v", err)
	} else {
		t.Logf("chaos failure dumped to %s", name)
	}
}

// TestChaosServeOverload is the overload soak: a request flood against a
// one-token server under the full injection preset — Burst pads batches,
// ShedStorm refuses admissions, DeadlinePin expires scopes at pin sites,
// and the CGC points stall collection under it all. Every seed must drain
// to a clean post-burst state: balanced pins (no leaks through scoped
// unwinds), no stuck gates (strict audit), no leaked tokens or stranded
// requests (serve audit), and a footprint that came back down after the
// burst (live words well under the burst's total allocation).
func TestChaosServeOverload(t *testing.T) {
	var bursts, storms uint64
	for _, seed := range chaosSeeds(t) {
		opts := chaos.Soak()
		cfg := core.Config{
			Procs: 4, HeapBudgetWords: 512, Seed: seed, Chaos: &opts,
			CGC: true, CGCThresholdWords: 1 << 12,
		}
		rt := core.New(cfg)
		srv := New(rt, Config{
			MaxConcurrent: 2, QueueDepth: 2,
			Deadline:    2 * time.Millisecond,
			BudgetWords: 1 << 14,
			RetryAfter:  200 * time.Microsecond,
		})
		done := make(chan error, 1)
		go func() {
			_, err := rt.Run(srv.Run)
			done <- err
		}()
		const n = 32
		var wg sync.WaitGroup
		var untyped int64
		var mu sync.Mutex
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, err := srv.Submit(churnRequest(100 + i))
				if err != nil &&
					!errors.Is(err, core.ErrShed) &&
					!errors.Is(err, core.ErrDeadlineExceeded) &&
					!errors.Is(err, core.ErrHeapLimit) {
					mu.Lock()
					untyped++
					t.Logf("seed %d request %d: untyped error %v", seed, i, err)
					mu.Unlock()
				}
			}(i)
		}
		wg.Wait()
		srv.Close()
		if err := <-done; err != nil {
			dumpChaosFailure(t, rt, srv, seed, err)
			t.Fatalf("seed %d: runtime error: %v\n%s", seed, err, rt.ChaosReport())
		}
		if untyped != 0 {
			dumpChaosFailure(t, rt, srv, seed, errors.New("untyped request errors"))
			t.Fatalf("seed %d: %d requests failed with untyped errors", seed, untyped)
		}
		if err := srv.Audit(); err != nil {
			dumpChaosFailure(t, rt, srv, seed, err)
			t.Fatalf("seed %d: %v", seed, err)
		}
		if s := rt.EntStats(); s.Pins != s.Unpins {
			dumpChaosFailure(t, rt, srv, seed, fmt.Errorf("pins %d != unpins %d", s.Pins, s.Unpins))
			t.Fatalf("seed %d: pins %d != unpins %d after overload drain", seed, s.Pins, s.Unpins)
		}
		if ierr := rt.CheckInvariants(); ierr != nil {
			dumpChaosFailure(t, rt, srv, seed, ierr)
			t.Fatalf("seed %d: invariants after overload: %v\n%s", seed, ierr, rt.ChaosReport())
		}
		// Flat footprint after the burst drains: residency must be a small
		// fraction of what the burst allocated in total — i.e. the garbage
		// of shed, killed, and completed requests alike was reclaimed, not
		// accumulated. LiveWords counts whole-chunk capacity, so the ratio
		// only means anything once the burst allocated well past chunk
		// granularity; tiny seeds (most requests shed or killed at birth)
		// are covered by TestServeFootprintFlatAcrossBursts instead.
		if live, total := rt.Space().LiveWords(), rt.Space().TotalAllocWords(); total > 1<<17 && live*4 > total {
			dumpChaosFailure(t, rt, srv, seed,
				fmt.Errorf("footprint not flat: %d live of %d allocated", live, total))
			t.Fatalf("seed %d: footprint not flat after drain: %d live words of %d allocated",
				seed, live, total)
		}
		ch := rt.Chaos()
		bursts += ch.Injected(chaos.Burst)
		storms += ch.Injected(chaos.ShedStorm)
	}
	if bursts == 0 {
		t.Fatal("Burst injection never fired across the seed matrix — rate wired wrong?")
	}
	if storms == 0 {
		t.Fatal("ShedStorm injection never fired across the seed matrix — rate wired wrong?")
	}
}

// TestChaosServeDeterministicShedStorm: the ShedStorm decision stream is
// part of the seeded replay — same seed, same submission order, same shed
// pattern at P=1.
func TestChaosServeDeterministicShedStorm(t *testing.T) {
	run := func() string {
		opts := chaos.Options{ShedStorm: 512}
		rt := core.New(core.Config{Procs: 1, Seed: 9, Chaos: &opts})
		srv := New(rt, Config{MaxConcurrent: 1})
		done := make(chan error, 1)
		go func() {
			_, err := rt.Run(srv.Run)
			done <- err
		}()
		var pattern strings.Builder
		for i := 0; i < 24; i++ {
			_, err := srv.Submit(func(t *core.Task) mem.Value { return mem.Int(int64(i)) })
			if errors.Is(err, core.ErrShed) {
				pattern.WriteByte('s')
			} else if err == nil {
				pattern.WriteByte('.')
			} else {
				t.Fatalf("request %d: %v", i, err)
			}
		}
		srv.Close()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return pattern.String()
	}
	first := run()
	if !strings.Contains(first, "s") {
		t.Fatalf("ShedStorm at 512/1024 never shed: %q", first)
	}
	for i := 0; i < 2; i++ {
		if got := run(); got != first {
			t.Fatalf("shed pattern diverged across identical runs:\n%q\nvs\n%q", got, first)
		}
	}
}
