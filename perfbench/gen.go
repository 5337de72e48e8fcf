package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxConns is the generator's connection budget: one per CPU, so the
// client never holds more sockets than the box has cores to serve them.
var maxConns = runtime.NumCPU()

// phase is the outcome of one stretch of traffic: an open loop at a fixed
// offered rate, or a closed loop.
type phase struct {
	duration time.Duration // scheduling window
	due      int           // operations scheduled in the window
	ok       int           // 2xx replies that passed the output check
	failed   int           // non-2xx, transport errors and check failures
	units    uint64        // server request-counter units of the 2xx replies
	kinds    [numKinds]int // 2xx replies per kind
	inWindow int           // ok operations completed within the scheduling window
	// lat holds every operation's latency in ms, timed from when it was due
	// (from its send in a closed loop), and late how long after that it was
	// sent; failed operations included.
	lat, late []float64
	// backlog is, at each send, how many operations were due but unsent.
	backlog []int
	opKind  []kind   // kind of each scheduled operation
	errs    []string // the first few failure descriptions
}

// achieved is the completed rate: ok operations completed within the
// scheduling window, over the window. Operations still queued or in flight
// when the window closes do not count, so a server that falls behind
// achieves less than was offered.
func (p *phase) achieved() float64 {
	return float64(p.inWindow) / p.duration.Seconds()
}

// backlogGrows reports whether the client backlog was clearly larger over
// the last quarter of sends than over the first — by more than 1% of the
// phase's operations — so the server fell behind. Poisson bursts at a
// sustainable rate queue a few operations and drain again; they do not.
func (p *phase) backlogGrows() bool {
	n := len(p.backlog)
	if n < 8 {
		return false
	}
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	return mean(p.backlog[3*n/4:])-mean(p.backlog[:n/4]) > max(float64(2*maxConns), 0.01*float64(n))
}

func (p *phase) failedShare() float64 {
	if p.due == 0 {
		return 0
	}
	return float64(p.failed) / float64(p.due)
}

// schedule returns n arrival offsets of a Poisson process over d: given
// its count, a Poisson process's arrivals are independent uniform points.
// Fixing the count to rate x d keeps the offered load exact per window.
func schedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	n := int(math.Round(rate * d.Seconds()))
	if n < 1 {
		n = 1
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// openLoop offers pool (starting at *next and advancing it) at rate for d
// over at most maxConns connections. An operation that finds every
// connection busy waits in the client; its latency still runs from when it
// was due. check verifies each 2xx reply.
func openLoop(addr string, pool []*op, next *int, rate float64, d time.Duration, rng *rand.Rand, check func(*op, []byte) error) *phase {
	due := schedule(rng, rate, d)
	n := len(due)
	p := &phase{duration: d, due: n,
		lat: make([]float64, n), late: make([]float64, n), backlog: make([]int, n), opKind: make([]kind, n)}
	first := *next
	*next += n
	var (
		claimed atomic.Int64
		mu      sync.Mutex
		wg      sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(addr)
			defer c.close()
			for {
				i := int(claimed.Add(1) - 1)
				if i >= n {
					return
				}
				if wait := due[i] - time.Since(start); wait > 0 {
					sleep(wait)
				}
				sent := time.Since(start)
				// Operations due by now but not yet claimed by a worker.
				p.backlog[i] = sort.Search(n, func(j int) bool { return due[j] > sent }) - int(claimed.Load())
				if p.backlog[i] < 0 {
					p.backlog[i] = 0
				}
				o := pool[(first+i)%len(pool)]
				p.opKind[i] = o.kind
				code, body, err := c.do(http.MethodPost, o.path, o.body, 10*time.Second)
				done := time.Since(start)
				p.lat[i] = ms(done - due[i])
				p.late[i] = ms(sent - due[i])
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("%s: status %d: %s", o.path, code, body)
				}
				if err == nil && check != nil {
					err = check(o, body)
				}
				mu.Lock()
				if code == http.StatusOK {
					p.units += o.units
					p.kinds[o.kind]++
				}
				if err != nil {
					p.failed++
					if len(p.errs) < 5 {
						p.errs = append(p.errs, err.Error())
					}
				} else {
					p.ok++
					if done <= d {
						p.inWindow++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	f := pos - float64(i)
	return xs[i]*(1-f) + xs[i+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// kindLatencies returns the latencies of the operations of kind k.
func (p *phase) kindLatencies(k kind) []float64 {
	var out []float64
	for i, ok := range p.opKind {
		if ok == k {
			out = append(out, p.lat[i])
		}
	}
	return out
}

// closedLoop sends pool operations back to back on conns connections for
// d. With one connection no operation ever waits for another, which gives
// the unloaded latency; with maxConns the achieved rate is the server's
// saturation throughput. Latencies run from each send.
func closedLoop(addr string, pool []*op, next *int, conns int, d time.Duration, check func(*op, []byte) error) *phase {
	p := &phase{duration: d}
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		claimed atomic.Int64
	)
	first := *next
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(addr)
			defer c.close()
			for time.Since(start) < d {
				o := pool[(first+int(claimed.Add(1)-1))%len(pool)]
				t := time.Now()
				code, body, err := c.do(http.MethodPost, o.path, o.body, 10*time.Second)
				lat := time.Since(t)
				done := time.Since(start)
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("%s: status %d: %s", o.path, code, body)
				}
				if err == nil && check != nil {
					err = check(o, body)
				}
				mu.Lock()
				p.due++
				p.lat = append(p.lat, ms(lat))
				p.opKind = append(p.opKind, o.kind)
				if code == http.StatusOK {
					p.units += o.units
					p.kinds[o.kind]++
				}
				if err != nil {
					p.failed++
					if len(p.errs) < 5 {
						p.errs = append(p.errs, err.Error())
					}
				} else {
					p.ok++
					if done <= d {
						p.inWindow++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	*next += int(claimed.Load())
	return p
}

// sleep blocks the calling thread in the kernel for d. The runtime's own
// timers round sub-millisecond waits up to a millisecond when the process
// is otherwise idle, which would add that much to every latency timed from
// a due time; a nanosleep wakes within the kernel's timer slack.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
