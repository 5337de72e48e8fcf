package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"neusight/internal/plan"
	"neusight/internal/predict"
	"neusight/internal/serve"
)

// bench is one benchmark invocation's shared state.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	bin      string // the neusight binary under test
	files    modelFiles
	eng      *predict.CoreEngine // direct engine over the same model files
	out      *run
	spanDir  string // where the traced run writes its spans
	host     hostSpeed
}

// Measurement settings. A run measures several server processes and
// reports each metric as the median over them: one process differs from
// the next by up to ~10% in latency and CPU per request, so a median over
// processes is steadier than any one process or than samples pooled
// across them. The run time S (--seconds) is split as: per process, a
// warm-up, an unloaded phase and a saturation phase of S/20 each, after a
// reference slot of S/80 (see ref.go); one more slot follows the last
// process. The traced run's server process runs a fixed-rate phase of
// S/15, a saturation phase of S/20 and knee-search steps of S/48.
const (
	servers   = 7                      // server processes per run; setup_s is the median of their starts
	p99Limit  = 50.0                   // ms; the knee search's latency limit, on the steep part of the curve
	stepGap   = 250 * time.Millisecond // idle time between phases, so one phase's backlog never leaks into the next
	kneeSteps = 3                      // knee-search steps after the first
	satFloor  = 0.7                    // the knee search's lower bracket, as a share of saturation
	warmDur   = 500 * time.Millisecond
)

// mixes holds the serving workloads: pool builder and fixed Poisson rate,
// each well below the mix's measured capacity (see spec.json). Warm-up
// offers three times the fixed rate, enough to fill the cache.
var mixes = map[string]struct {
	pool      func(int64) []*op
	fixedRate float64
}{
	hotMix:  {hotPool, 600},
	coldMix: {coldPool, 150},
}

// probeOp is the forecast setup_s waits for: the first correct answer.
var probeOp = kernelOp(serve.KernelRequest{Op: "bmm", B: 8, M: 512, K: 512, N: 512, GPU: "H100"})

// launch starts a server and times it from exec to its first correct
// forecast of the probe.
func (b *bench) launch(probe *oracle) (*server, time.Duration, error) {
	t0 := time.Now()
	s, err := startServer(b.bin, b.files)
	if err != nil {
		return nil, 0, err
	}
	c := newConn(s.addr)
	defer c.close()
	for {
		code, body, err := c.do(http.MethodPost, probeOp.path, probeOp.body, 10*time.Second)
		if err == nil && code == http.StatusOK {
			if err := probe.check(probeOp, body); err != nil {
				s.stop()
				return nil, 0, fmt.Errorf("setup probe: %w", err)
			}
			return s, time.Since(t0), nil
		}
		if time.Since(t0) > time.Minute {
			s.stop()
			return nil, 0, fmt.Errorf("server at %s never answered the setup probe", s.addr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// measured runs one open-loop phase and checks the client's 2xx replies
// against the server's own request counters over the same interval.
func (b *bench) measured(s *server, pool []*op, next *int, rate float64, d time.Duration, rng *rand.Rand, check func(*op, []byte) error) (*phase, serve.Stats, error) {
	return b.counted(s, func() *phase { return openLoop(s.addr, pool, next, rate, d, rng, check) })
}

// counted runs one phase between two /v2/stats reads, folds it into the
// run and fails the run when the server's request counters disagree with
// the client's 2xx replies. It returns the phase and the counter delta.
func (b *bench) counted(s *server, run func() *phase) (*phase, serve.Stats, error) {
	st0, err := stats(s.addr)
	if err != nil {
		return nil, serve.Stats{}, err
	}
	p := run()
	st1, err := stats(s.addr)
	if err != nil {
		return nil, serve.Stats{}, err
	}
	b.out.phase(p)
	delta := serve.Stats{
		Requests:      st1.Requests - st0.Requests,
		GraphRequests: st1.GraphRequests - st0.GraphRequests,
		BatchRequests: st1.BatchRequests - st0.BatchRequests,
		CacheHits:     st1.CacheHits - st0.CacheHits,
		CacheMisses:   st1.CacheMisses - st0.CacheMisses,
		Coalesced:     st1.Coalesced - st0.Coalesced,
		Rejected:      st1.Rejected - st0.Rejected,
	}
	if delta.Requests != p.units || delta.GraphRequests != uint64(p.kinds[kindGraph]) || delta.BatchRequests != uint64(p.kinds[kindBatch]) {
		b.out.fail("server counted %d kernel requests (%d graph, %d batch), client got %d (%d graph, %d batch)",
			delta.Requests, delta.GraphRequests, delta.BatchRequests, p.units, p.kinds[kindGraph], p.kinds[kindBatch])
	}
	return p, delta, nil
}

// endToEnd holds one run's per-process figures; each end-to-end metric
// is their median.
type endToEnd struct {
	// Per process: set-up time (s), unloaded p50, p90 and p99 (ms), capacity
	// (1/s), CPU per operation (us), peak RSS (MB).
	setup, p50, p90, p99, capacity, cpu, rss []float64
	latN, capN                               int // operations behind the latencies and behind capacity and CPU
}

// report sets the end-to-end metrics, each the median over the run's
// processes of the process's figure scaled to a host of nominal speed by
// the reference slots around it (see ref.go): CPU per operation by their
// CPU-time speed, the other timings by their wall-clock speed, rates
// inversely. The unscaled medians and the median host speeds are printed
// beside them.
func (b *bench) report(e *endToEnd) {
	n := len(e.setup)
	wall, cpu := make([]float64, n), make([]float64, n)
	for i := range wall {
		wall[i], cpu[i] = b.host.around(i)
	}
	b.out.info("host_speed", median(wall), "ratio", n)
	b.out.info("host_cpu_speed", median(cpu), "ratio", n)
	// The unloaded p99 rides on the host's multi-millisecond stalls, which
	// no reference slot sees: over ten runs in a stall-prone hour its
	// spread reached 0.42 on cold-mix, so it is printed, not gated.
	b.out.info("unloaded_p99_ms", median(e.p99), "ms", e.latN)
	fmt.Print("  reference slots, us per unit (wall/cpu):")
	for i := range b.host.wall {
		fmt.Printf(" %.0f/%.0f", b.host.wall[i]/1e3, b.host.cpu[i]/1e3)
	}
	fmt.Println()
	for _, m := range []struct {
		name, unit string
		xs         []float64
		n          int
		speed      []float64 // nil: not scaled
		exp        float64   // 1 for a timing, -1 for a rate
	}{
		{"unloaded_p50_ms", "ms", e.p50, e.latN, wall, 1},
		{"unloaded_p90_ms", "ms", e.p90, e.latN, wall, 1},
		{"capacity_per_s", "1/s", e.capacity, e.capN, wall, -1},
		{"cpu_us_per_op", "us", e.cpu, e.capN, cpu, 1},
		{"rss_mb", "MB", e.rss, len(e.rss), nil, 0},
		{"setup_s", "s", e.setup, len(e.setup), wall, 1},
	} {
		if m.speed == nil {
			b.out.set(m.name, median(m.xs), m.unit, m.n)
			continue
		}
		scaled := make([]float64, len(m.xs))
		for i, x := range m.xs {
			scaled[i] = x * math.Pow(m.speed[i], m.exp)
		}
		b.out.info("raw."+m.name, median(m.xs), m.unit, m.n)
		b.out.set(m.name, median(scaled), m.unit, m.n)
	}
}

// runServing measures one serving mix end to end against server
// processes: per process its set-up, a warm-up, an unloaded phase and a
// saturation phase. The traced run measures one process's warm-up, then
// its fixed-rate Poisson phase (for the server's counters and the
// generator's guards) and the knee search, before the in-process replay.
func (b *bench) runServing(ctx context.Context) error {
	mix := mixes[b.workload]
	pool := mix.pool(b.seed)
	or, err := newOracle(ctx, b.eng, pool)
	if err != nil {
		return err
	}
	probe, err := newOracle(ctx, b.eng, []*op{probeOp})
	if err != nil {
		return err
	}
	procs := servers
	if b.out.trace {
		procs = 1
	}
	var share [numKinds]float64 // each request kind's share of the pool
	for _, o := range pool {
		share[o.kind] += 1 / float64(len(pool))
	}
	var e endToEnd
	rng := rand.New(rand.NewSource(b.seed))
	next := 0
	for i := 0; i < procs; i++ {
		b.host.sample(b.seconds / 80)
		s, d, err := b.launch(probe)
		if err != nil {
			return err
		}
		e.setup = append(e.setup, d.Seconds())
		if _, _, err = b.measured(s, pool, &next, 3*mix.fixedRate, warmDur, rng, or.check); err == nil {
			if b.out.trace {
				err = b.diagnose(s, pool, &next, rng, mix.fixedRate, or.check)
			} else {
				err = b.loads(s, pool, &next, share, or.check, &e)
			}
		}
		if err == nil {
			var rss float64
			rss, err = peakRSSMB(s.pid())
			e.rss = append(e.rss, rss)
		}
		s.stop()
		if err != nil {
			return err
		}
	}
	if b.out.trace {
		return b.traceServing(ctx, pool, or)
	}
	b.host.sample(b.seconds / 80)
	b.report(&e)
	return nil
}

// loads measures one process's unloaded latency and its saturation
// throughput and CPU per request into e.
func (b *bench) loads(s *server, pool []*op, next *int, share [numKinds]float64, check func(*op, []byte) error, e *endToEnd) error {
	u, err := b.closed(s, pool, next, 1, b.seconds/20, check)
	if err != nil {
		return err
	}
	time.Sleep(stepGap)
	cpu0, err := cpuTime(s.pid())
	if err != nil {
		return err
	}
	sat, err := b.closed(s, pool, next, maxConns, b.seconds/20, check)
	if err != nil {
		return err
	}
	cpu1, err := cpuTime(s.pid())
	if err != nil {
		return err
	}
	// The median of a mix is ill-conditioned: with half the requests
	// single kernels and half heavier ones, it falls in the gap between the
	// kinds' latency clusters and jumps with the sampled shares. So the
	// unloaded median is each kind's median weighted by the kind's exact
	// share of the pool.
	p50 := 0.0
	for k := kind(0); k < numKinds; k++ {
		p50 += share[k] * quantile(u.kindLatencies(k), 0.50)
	}
	cpu := us(cpu1-cpu0) / float64(sat.ok)
	e.p50 = append(e.p50, p50)
	e.p90 = append(e.p90, quantile(u.lat, 0.90))
	e.p99 = append(e.p99, quantile(u.lat, 0.99))
	e.capacity = append(e.capacity, sat.achieved())
	e.cpu = append(e.cpu, cpu)
	e.latN += len(u.lat)
	e.capN += sat.ok
	fmt.Printf("  server %d: unloaded p50 %.3f ms p99 %.3f ms, saturation %.0f/s at %.0f us CPU per op\n",
		len(e.p50)-1, p50, quantile(u.lat, 0.99), sat.achieved(), cpu)
	return nil
}

// diagnose runs the open-loop Poisson phase at the mix's fixed rate and
// reports its latency and CPU (printed) and the server's counters and the
// generator's lateness and backlog over it (per-layer); then it measures
// the saturation throughput and searches for the knee below it.
func (b *bench) diagnose(s *server, pool []*op, next *int, rng *rand.Rand, rate float64, check func(*op, []byte) error) error {
	time.Sleep(stepGap)
	cpu0, err := cpuTime(s.pid())
	if err != nil {
		return err
	}
	p, delta, err := b.measured(s, pool, next, rate, b.seconds/15, rng, check)
	if err != nil {
		return err
	}
	cpu1, err := cpuTime(s.pid())
	if err != nil {
		return err
	}
	n := len(p.lat)
	b.out.info("fixed_rate_per_s", rate, "1/s", p.due)
	b.out.info("fixed_p50_ms", quantile(p.lat, 0.50), "ms", n)
	b.out.info("fixed_p99_ms", quantile(p.lat, 0.99), "ms", n)
	b.out.info("fixed_cpu_us_per_op", us(cpu1-cpu0)/float64(p.ok), "us", p.ok)
	lookups := delta.CacheHits + delta.CacheMisses
	b.out.setLayer("serve.hit_ratio", ratio(delta.CacheHits, lookups), int(lookups))
	b.out.setLayer("serve.coalesced", float64(delta.Coalesced), int(lookups))
	b.out.setLayer("serve.rejected", float64(delta.Rejected), p.due)
	b.out.setLayer("gen.lateness_p99_ms", quantile(p.late, 0.99), n)
	b.out.setLayer("gen.backlog_max", float64(maxInt(p.backlog)), n)
	time.Sleep(stepGap)
	sat, err := b.closed(s, pool, next, maxConns, b.seconds/20, check)
	if err != nil {
		return err
	}
	return b.knee(s, pool, next, rng, sat.achieved(), check)
}

// closed runs a closed loop on conns connections and checks the server's
// counters over it, like measured.
func (b *bench) closed(s *server, pool []*op, next *int, conns int, d time.Duration, check func(*op, []byte) error) (*phase, error) {
	p, _, err := b.counted(s, func() *phase { return closedLoop(s.addr, pool, next, conns, d, check) })
	return p, err
}

// knee searches for the highest offered Poisson rate the server
// sustains: achieved >= 99% of offered, no growing client backlog, at most
// 1% failed and p99 under p99Limit. No open loop sustains more than the
// saturation throughput x, so the search bisects offered rates between
// satFloor*x (stepping down further if even that fails) and x, for
// kneeSteps steps: about 4% resolution. The knee and its share of x are
// printed, not gated: on a 2-vCPU host the share moves by half between
// identical runs.
func (b *bench) knee(s *server, pool []*op, next *int, rng *rand.Rand, x float64, check func(*op, []byte) error) error {
	steps := 0
	try := func(rate float64) (bool, error) {
		time.Sleep(stepGap)
		p, _, err := b.measured(s, pool, next, rate, b.seconds/48, rng, check)
		if err != nil {
			return false, err
		}
		steps++
		offered := float64(p.due) / p.duration.Seconds()
		pass := p.failedShare() <= 0.01 && p.achieved() >= 0.99*offered && !p.backlogGrows() && quantile(p.lat, 0.99) <= p99Limit
		fmt.Printf("  step %8.1f/s: achieved %8.1f/s, p99 %8.2f ms, backlog growing %-5v failed %d -> pass %v\n",
			offered, p.achieved(), quantile(p.lat, 0.99), p.backlogGrows(), p.failed, pass)
		return pass, nil
	}
	lo, hi := satFloor*x, x
	for {
		ok, err := try(lo)
		if err != nil {
			return err
		}
		if ok {
			break
		}
		if hi = lo; lo < 1 {
			return fmt.Errorf("no offered rate down to %.1f/s met the capacity criteria", lo)
		}
		lo *= satFloor
	}
	for i := 0; i < kneeSteps; i++ {
		mid := math.Sqrt(lo * hi)
		ok, err := try(mid)
		if err != nil {
			return err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	b.out.info("knee_per_s", lo, "1/s", steps)
	b.out.info("knee_share", lo/x, "ratio", steps)
	return nil
}

// runPlan measures the plan-matrix workload: one client submits one
// /v2/plan job at a time and polls it to completion.
func (b *bench) runPlan(ctx context.Context) error {
	spec := planSpec(b.seed)
	norm := spec
	if err := norm.Normalize(); err != nil {
		return err
	}
	cfgs := plan.Expand(norm)
	direct, err := plan.EvaluateBatch(ctx, b.eng, norm, cfgs)
	if err != nil {
		return err
	}
	want := plan.Rank(direct)
	if b.out.trace {
		return b.tracePlan(ctx, norm, cfgs, direct)
	}
	probe, err := newOracle(ctx, b.eng, []*op{probeOp})
	if err != nil {
		return err
	}
	// The latencies are the jobs' (ms), capacity is cells per second and
	// CPU is per cell.
	var e endToEnd
	jobs := 0
	for i := 0; i < servers; i++ {
		b.host.sample(b.seconds / 60)
		s, d, err := b.launch(probe)
		if err != nil {
			return err
		}
		e.setup = append(e.setup, d.Seconds())
		lats, cells, busy, cpuUsed, peak, err := b.planProcess(s, spec, want, &jobs)
		s.stop()
		if err != nil {
			return err
		}
		e.p50 = append(e.p50, quantile(lats, 0.50))
		e.p90 = append(e.p90, quantile(lats, 0.90))
		e.p99 = append(e.p99, quantile(lats, 0.99))
		e.capacity = append(e.capacity, float64(cells)/busy.Seconds())
		e.cpu = append(e.cpu, us(cpuUsed)/float64(cells))
		e.rss = append(e.rss, peak)
		e.latN += len(lats)
		e.capN += cells
		fmt.Printf("  server %d: %d jobs, p50 %.1f ms, %.1f cells/s, %.0f us CPU per cell\n", i, len(lats), e.p50[i], e.capacity[i], e.cpu[i])
	}
	b.host.sample(b.seconds / 60)
	b.report(&e)
	return nil
}

// planProcess submits plan jobs one at a time to one server process for
// its share of the run time, checking each ranking and the server's
// counters. It returns the job latencies (ms), the cells evaluated, the
// time the jobs took, the server's CPU time over them and its peak RSS;
// *jobs numbers the jobs across processes.
func (b *bench) planProcess(s *server, spec plan.Spec, want []plan.Result, jobs *int) (lats []float64, cells int, busy, cpu time.Duration, rss float64, err error) {
	st0, err := stats(s.addr)
	if err != nil {
		return
	}
	cpu0, err := cpuTime(s.pid())
	if err != nil {
		return
	}
	c := newConn(s.addr)
	defer c.close()
	for ; busy == 0 || busy < b.seconds*9/10/servers; *jobs++ {
		spec.Seed = b.seed*1000 + int64(*jobs)
		b.out.attempted++
		t0 := time.Now()
		st, err := submitPlan(c, spec)
		d := time.Since(t0)
		busy += d
		if err != nil {
			b.out.fail("plan job %d: %v", *jobs, err)
			continue
		}
		lats = append(lats, ms(d))
		cells += st.Total
		if err := checkPlan(c, st.ID, want); err != nil {
			b.out.fail("plan job %d: %v", *jobs, err)
		}
	}
	cpu1, err := cpuTime(s.pid())
	if err != nil {
		return
	}
	st1, err := stats(s.addr)
	if err != nil {
		return
	}
	if st1.Requests != st0.Requests {
		b.out.fail("plan-matrix reached the predict path: %d kernel requests", st1.Requests-st0.Requests)
	}
	if st1.Plan == nil || st0.Plan == nil || st1.Plan.ConfigsEvaluated-st0.Plan.ConfigsEvaluated != uint64(cells) {
		b.out.fail("server plan counters do not show the %d cells the client saw evaluated", cells)
	}
	rss, err = peakRSSMB(s.pid())
	return lats, cells, busy, cpu1 - cpu0, rss, err
}

// planPoll is how often the client polls a running plan job.
const planPoll = 5 * time.Millisecond

// submitPlan posts spec and polls the job until it is done.
func submitPlan(c *conn, spec plan.Spec) (plan.Status, error) {
	var st plan.Status
	if err := c.call(http.MethodPost, "/v2/plan", mustJSON(spec), http.StatusAccepted, &st); err != nil {
		return st, err
	}
	for st.State == plan.StateRunning {
		time.Sleep(planPoll)
		if err := c.call(http.MethodGet, "/v2/plan/"+st.ID, nil, http.StatusOK, &st); err != nil {
			return st, err
		}
	}
	if st.State != plan.StateDone {
		return st, fmt.Errorf("job ended %s: %s", st.State, st.Error)
	}
	return st, nil
}

// checkPlan fetches a finished job's full ranking and compares it with the
// in-process plan.EvaluateBatch answer, cell by cell and in rank order.
func checkPlan(c *conn, id string, want []plan.Result) error {
	var st plan.Status
	if err := c.call(http.MethodGet, "/v2/plan/"+id+"?full=1", nil, http.StatusOK, &st); err != nil {
		return err
	}
	if st.Evaluated != len(want) || len(st.Ranking) != len(want) {
		return fmt.Errorf("%d of %d cells evaluated, %d ranked", st.Evaluated, len(want), len(st.Ranking))
	}
	for i := range want {
		if st.Ranking[i] != want[i] {
			return fmt.Errorf("rank %d: served %+v, direct plan.EvaluateBatch %+v", i, st.Ranking[i], want[i])
		}
	}
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
