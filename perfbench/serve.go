package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"chebymc/internal/mc"
	"chebymc/internal/rng"
	"chebymc/internal/serve"
	"chebymc/internal/taskgen"
)

// Request classes of the serve-mix traffic.
const (
	classL1   = iota // byte-identical repeat of a pre-warmed request
	classL2          // the same logical request re-encoded with new bytes
	classMiss        // a task set the server has never seen
	classFit         // a trace upload to /v1/fit (never cached)
	nClasses
)

var classNames = [nClasses]string{"l1", "l2", "miss", "fit"}

// classShare is the traffic mix; it sums to 1.
var classShare = [nClasses]float64{0.80, 0.10, 0.05, 0.05}

// serveLayerMetrics are the per-layer rows only serve-mix drives.
var serveLayerMetrics = []string{
	"serve.l1_hit_us", "serve.l2_hit_us", "serve.miss_ms", "serve.fit_ms",
	"serve.l1_hit_ratio", "serve.l2_hit_ratio", "serve.evictions", "serve.flight_shared",
	"serve.queue_rejected", "http.overhead_p50_us", "loadgen.late_p99_ms",
	"mix.l1_share", "mix.l2_share", "mix.miss_share", "mix.fit_share",
}

// serveSize scales serve-mix. The sources of the full-size values are
// in README.md.
type serveSize struct {
	// hot is the pre-warmed corpus, requested with zipf(zipfS)
	// popularity; coldU the utilisation bound of every served set.
	hot   int
	zipfS float64
	coldU float64
	// fitTraces distinct uploads of fitSamples samples each.
	fitTraces, fitSamples int
	// batch is the closed-loop fixed job behind wall_s, sent once
	// untimed and then batchReps times back to back.
	batch, batchReps int
	// windows open-loop windows of window requests each at the nominal
	// rate give p50/p99: the median over windows of each window's
	// percentile, so a short stall of a shared machine moves one window,
	// not the result.
	windows, window int
	nominal         float64
}

var (
	serveFull = serveSize{
		hot: 64, zipfS: 1.3, coldU: 1.0, fitTraces: 16, fitSamples: 1000,
		batch: 4000, batchReps: 10, windows: 8, window: 2250, nominal: 1200,
	}
	serveSmoke = serveSize{
		hot: 4, zipfS: 1.3, coldU: 1.0, fitTraces: 2, fitSamples: 200,
		batch: 60, batchReps: 2, windows: 2, window: 100, nominal: 400,
	}
)

const (
	// late50 and late99 bound the generator's own lateness — how long
	// after a request was due it was sent, not counting waits for a busy
	// connection — as a share of the latency it is part of: a run whose
	// p50_ms drops by more than late50, or whose p99_ms drops by more
	// than late99, when every request is timed without it is invalid.
	// At p99 the generator shares the process's processors with the
	// cold computes and the garbage collector that delay the server, so
	// its limit is wider (README.md has the measured shares).
	late50, late99 = 0.25, 0.5
	// clientTimeout bounds one request; a timeout is a failed request.
	clientTimeout = 10 * time.Second
)

// planned is one request of a phase's schedule.
type planned struct {
	class uint8
	// idx picks the hot set (l1, l2) or the fit trace (fit); a miss
	// takes the next unused cold set when it is sent.
	idx int32
}

// Input families under streamServe.
const (
	familyHot int64 = iota + 1
	familyCold
	familyFit
	familyBatch
	familyOpen
)

// serveInputs is everything a serve-mix run generates from its seed.
type serveInputs struct {
	seed int64
	size serveSize
	// hotBody is each hot set's canonical request; hotAlt the same
	// logical request with another field order and the HC c_lo
	// placeholders omitted, which L2 variants re-encode further.
	hotBody, hotAlt [][]byte
	fits            [][]byte
	batch           []planned
	// cold holds the never-seen requests generated so far; a phase
	// extends it (prepare) before its clock starts.
	cold [][]byte
}

// wireTask is mc.Task's JSON shape with an omittable c_lo, so the L2
// variants can drop the HC placeholders the service fills in itself.
type wireTask struct {
	ID      int        `json:"id"`
	Name    string     `json:"name,omitempty"`
	Crit    mc.Crit    `json:"crit"`
	CLO     float64    `json:"c_lo,omitempty"`
	CHI     float64    `json:"c_hi"`
	Period  float64    `json:"period"`
	Profile mc.Profile `json:"profile"`
}

func encodeAssign(ts *mc.TaskSet, seed int64, alt bool) ([]byte, error) {
	tasks := make([]wireTask, len(ts.Tasks))
	for i, t := range ts.Tasks {
		tasks[i] = wireTask{ID: t.ID, Name: t.Name, Crit: t.Crit, CLO: t.CLO, CHI: t.CHI, Period: t.Period, Profile: t.Profile}
		if alt && t.Crit == mc.HC {
			tasks[i].CLO = 0
		}
	}
	if alt {
		return json.Marshal(struct {
			Tasks []wireTask `json:"tasks"`
			Seed  int64      `json:"seed"`
		}{tasks, seed})
	}
	return json.Marshal(struct {
		Seed  int64      `json:"seed"`
		Tasks []wireTask `json:"tasks"`
	}{seed, tasks})
}

// reencode inserts 12 whitespace characters spelling n in base 4 after
// the opening brace: new bytes for every n, the same JSON value.
func reencode(alt []byte, n uint64) []byte {
	const ws = " \t\n\r"
	out := make([]byte, 0, len(alt)+12)
	out = append(out, alt[0])
	for i := 0; i < 12; i++ {
		out = append(out, ws[n&3])
		n >>= 2
	}
	return append(out, alt[1:]...)
}

// plan draws n requests of the mix from the stream (seed, ids...). The
// class counts are exact shares of n, in seeded order, so every seed
// sends the same mix.
func (in *serveInputs) plan(n int, ids ...int64) []planned {
	r := rng.New(in.seed, append([]int64{streamServe}, ids...)...)
	z := rand.NewZipf(r, in.size.zipfS, 1, uint64(in.size.hot-1))
	out := make([]planned, 0, n)
	for c := nClasses - 1; c >= 0; c-- {
		k := int(math.Round(classShare[c] * float64(n)))
		if c == classL1 {
			k = n - len(out)
		}
		for i := 0; i < k; i++ {
			out = append(out, planned{class: uint8(c)})
		}
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		switch out[i].class {
		case classL1, classL2:
			out[i].idx = int32(z.Uint64())
		case classFit:
			out[i].idx = int32(r.Intn(in.size.fitTraces))
		}
	}
	return out
}

// taskSet draws set k of an input family from its stream, and the
// request seed after it.
func (in *serveInputs) taskSet(family, k int64) (*mc.TaskSet, int64, error) {
	r := rng.New(in.seed, streamServe, family, k)
	ts, err := taskgen.Mixed(r, taskgen.Config{}, in.size.coldU)
	if err != nil {
		return nil, 0, err
	}
	return ts, r.Int63(), nil
}

// prepare extends the cold pool so that ps, sent after the sets already
// handed out, finds a never-seen set for every miss.
func (in *serveInputs) prepare(ps []planned, used int) error {
	need := used
	for _, p := range ps {
		if p.class == classMiss {
			need++
		}
	}
	for k := len(in.cold); k < need; k++ {
		ts, s, err := in.taskSet(familyCold, int64(k))
		if err != nil {
			return err
		}
		body, err := encodeAssign(ts, s, false)
		if err != nil {
			return err
		}
		in.cold = append(in.cold, body)
	}
	return nil
}

func genServeInputs(seed int64, sz serveSize) (*serveInputs, error) {
	in := &serveInputs{seed: seed, size: sz}
	in.batch = in.plan(sz.batch, familyBatch)
	for k := 0; k < sz.hot; k++ {
		ts, s, err := in.taskSet(familyHot, int64(k))
		if err != nil {
			return nil, err
		}
		body, err := encodeAssign(ts, s, false)
		if err != nil {
			return nil, err
		}
		alt, err := encodeAssign(ts, s, true)
		if err != nil {
			return nil, err
		}
		in.hotBody = append(in.hotBody, body)
		in.hotAlt = append(in.hotAlt, alt)
	}
	for k := 0; k < sz.fitTraces; k++ {
		r := rng.New(seed, streamServe, familyFit, int64(k))
		// Execution-time-like samples: a lognormal body with a heavier
		// right tail, like the Table I traces.
		mu, sig := 8+2*r.Float64(), 0.05+0.2*r.Float64()
		xs := make([]float64, sz.fitSamples)
		for i := range xs {
			xs[i] = math.Exp(mu + sig*r.NormFloat64())
		}
		body, err := json.Marshal(struct {
			Samples []float64 `json:"samples"`
		}{xs})
		if err != nil {
			return nil, err
		}
		in.fits = append(in.fits, body)
	}
	return in, nil
}

// timedMux wraps the service's mux so the traced run records each
// request's handler time as a serve.<class> span under the client's
// span. With no tracer installed it only forwards.
type timedMux struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
}

func (m *timedMux) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := m.tr.Load()
	if tr == nil {
		m.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
	item, _ := strconv.Atoi(r.Header.Get("X-Bench-Item"))
	i := tr.open("serve."+r.Header.Get("X-Bench-Class"), item, parent)
	m.next.ServeHTTP(w, r)
	tr.close(i)
}

// server is one in-process serve.New(serve.Config{}) on a loopback
// listener.
type server struct {
	svc *serve.Service
	mux *timedMux
	srv *http.Server
	url string
	// done closes when Serve has returned.
	done chan struct{}
}

func startServer() (*server, error) {
	svc := serve.New(serve.Config{})
	mux := http.NewServeMux()
	svc.Mount(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{svc: svc, mux: &timedMux{next: mux}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
	}()
	return s, nil
}

// stop drains the service and closes the listener, returning once the
// serving goroutine has exited.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	derr := s.svc.Drain(ctx)
	serr := s.srv.Shutdown(ctx)
	<-s.done
	return errors.Join(derr, serr)
}

// conn is one client connection the load generator owns.
type conn struct {
	c   *http.Client
	buf bytes.Buffer
}

func newConn() *conn {
	return &conn{c: &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
			DisableCompression: true,
		},
	}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// post sends one request and leaves the response body in c.buf.
func (c *conn) post(url string, body []byte, hdr map[string]string) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// sample is one sent request.
type sample struct {
	class uint8
	ok    bool
	// lat runs from when the request was due (open loop) or sent
	// (closed loop) to when its response was read; late is how long the
	// generator overslept past the moment it could have sent.
	lat, late time.Duration
}

// checker verifies responses against cold computes of the same
// logical requests.
type checker struct {
	// ref is each hot set's assignment bytes from a fresh service.
	ref [][]byte
	mu  sync.Mutex
	// coldSeen keeps the first cold responses for a recompute after the
	// run.
	coldSeen []coldCheck
}

type coldCheck struct{ body, assignment []byte }

const coldChecks = 8

// assignmentOf cuts the cached assignment bytes out of an envelope
// {"cache":…,"digest":…,"assignment":<bytes>}.
func assignmentOf(env []byte) ([]byte, string, error) {
	const key = `"assignment":`
	i := bytes.Index(env, []byte(key))
	j := bytes.LastIndexByte(env, '}')
	if i < 0 || j < i+len(key) {
		return nil, "", fmt.Errorf("no assignment in %.80q", env)
	}
	var head struct {
		Cache string `json:"cache"`
	}
	if err := json.Unmarshal(append(append([]byte(nil), env[:i]...), `"x":0}`...), &head); err != nil {
		return nil, "", fmt.Errorf("bad envelope %.80q: %v", env, err)
	}
	return env[i+len(key) : j], head.Cache, nil
}

// check validates one response; it returns "" when the response is right.
func (ck *checker) check(p planned, reqBody, resp []byte) string {
	switch p.class {
	case classL1, classL2:
		a, state, err := assignmentOf(resp)
		if err != nil {
			return err.Error()
		}
		if state != "hit" {
			return fmt.Sprintf("%s request for hot set %d answered %q", classNames[p.class], p.idx, state)
		}
		if !bytes.Equal(a, ck.ref[p.idx]) {
			return fmt.Sprintf("%s hit for hot set %d differs from a cold compute", classNames[p.class], p.idx)
		}
	case classMiss:
		a, _, err := assignmentOf(resp)
		if err != nil {
			return err.Error()
		}
		if !json.Valid(a) {
			return "cold assignment is not valid JSON"
		}
		ck.mu.Lock()
		if len(ck.coldSeen) < coldChecks {
			ck.coldSeen = append(ck.coldSeen, coldCheck{body: reqBody, assignment: append([]byte(nil), a...)})
		}
		ck.mu.Unlock()
	case classFit:
		var fr struct {
			N    int `json:"n"`
			Fits []struct {
				Family string   `json:"family"`
				KS     *float64 `json:"ks"`
				Error  string   `json:"error"`
			} `json:"fits"`
		}
		if err := json.Unmarshal(resp, &fr); err != nil {
			return fmt.Sprintf("fit response does not parse: %v", err)
		}
		if len(fr.Fits) != 3 || fr.N == 0 {
			return fmt.Sprintf("fit response has %d fits over %d samples", len(fr.Fits), fr.N)
		}
		for _, f := range fr.Fits {
			if f.Error != "" || f.KS == nil {
				return fmt.Sprintf("fit %s failed: %s", f.Family, f.Error)
			}
		}
	}
	return ""
}

// refService answers requests on a service of its own, which has seen
// none of the traffic: each distinct request it gets is a cold compute.
type refService struct{ mux *http.ServeMux }

func newRefService() refService {
	mux := http.NewServeMux()
	serve.New(serve.Config{}).Mount(mux)
	return refService{mux: mux}
}

// assignment returns the assignment bytes the service answers body with.
func (rs refService) assignment(body []byte) ([]byte, error) {
	rec := httptest.NewRecorder()
	rs.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/assign", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("cold compute answered %d: %s", rec.Code, rec.Body.String())
	}
	a, _, err := assignmentOf(rec.Body.Bytes())
	return a, err
}

// generator sends phases of planned requests over its connections.
type generator struct {
	in    *serveInputs
	srv   *server
	conns []*conn
	ck    *checker
	// coldNext and variant hand out never-seen sets and never-sent L2
	// encodings across every phase of the run.
	coldNext atomic.Int64
	variant  atomic.Uint64
}

func (g *generator) body(p planned) []byte {
	switch p.class {
	case classL1:
		return g.in.hotBody[p.idx]
	case classL2:
		return reencode(g.in.hotAlt[p.idx], g.variant.Add(1))
	case classMiss:
		return g.in.cold[g.coldNext.Add(1)-1]
	}
	return g.in.fits[p.idx]
}

// phaseResult is what one phase measured.
type phaseResult struct {
	samples  []sample
	wall     time.Duration
	failures []string
}

// drive sends ps over the first nConns connections. rate > 0 is an open
// loop: request i is due at start + i/rate and is timed from then;
// rate = 0 is a closed loop. A traced phase sends one request at a time.
func (g *generator) drive(ps []planned, rate float64, nConns int, tr *tracer) (phaseResult, error) {
	if err := g.in.prepare(ps, int(g.coldNext.Load())); err != nil {
		return phaseResult{}, err
	}
	var next atomic.Int64
	res := phaseResult{samples: make([]sample, len(ps))}
	fails := make([][]string, nConns)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < nConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := g.conns[w]
			hdr := map[string]string{}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ps) {
					return
				}
				p := ps[i]
				body := g.body(p)
				url := g.srv.url + "/v1/assign"
				if p.class == classFit {
					url = g.srv.url + "/v1/fit"
				}
				free := time.Now()
				due := free
				if rate > 0 {
					due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					sleepUntil(due)
				}
				sp := -1
				if tr != nil {
					sp = tr.open("http", i, -1)
					hdr["X-Bench-Span"] = strconv.Itoa(sp)
					hdr["X-Bench-Item"] = strconv.Itoa(i)
					hdr["X-Bench-Class"] = classNames[p.class]
				}
				sent := time.Now()
				code, err := c.post(url, body, hdr)
				end := time.Now()
				tr.close(sp)
				s := sample{class: p.class, lat: end.Sub(due)}
				if due.After(free) {
					s.late = sent.Sub(due)
				} else {
					s.late = sent.Sub(free)
				}
				switch {
				case err != nil:
					fails[w] = append(fails[w], fmt.Sprintf("%s request: %v", classNames[p.class], err))
				case code != http.StatusOK:
					fails[w] = append(fails[w], fmt.Sprintf("%s request answered %d: %.120s", classNames[p.class], code, c.buf.Bytes()))
				default:
					if msg := g.ck.check(p, body, c.buf.Bytes()); msg != "" {
						fails[w] = append(fails[w], msg)
					} else {
						s.ok = true
					}
				}
				res.samples[i] = s
			}
		}(w)
	}
	wg.Wait()
	res.wall = time.Since(start)
	for _, f := range fails {
		res.failures = append(res.failures, f...)
	}
	return res, nil
}

// spinTail is how long before a request is due sleepUntil stops
// sleeping and spins.
const spinTail = 100 * time.Microsecond

// sleepUntil blocks until t: it sleeps in clock_nanosleep until spinTail
// before t, then spins. time.Sleep is not used: while every processor is
// idle the Go runtime waits for timers in epoll_pwait, whose millisecond
// timeout made it oversleep by 0.7–0.9 ms at the median on a 2-vCPU
// Linux VM, more than the latency the open loop measures; a bare
// clock_nanosleep still overslept by 60–90 µs there.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d <= spinTail {
			continue
		}
		ts := syscall.NsecToTimespec(int64(d - spinTail))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again for what is left
	}
}

// latencies returns the latencies in ms of the samples of the given
// classes (all classes when none is named); a failed request reads as
// the client timeout, so it misses every limit.
func latencies(ss []sample, classes ...uint8) []float64 {
	want := func(c uint8) bool {
		if len(classes) == 0 {
			return true
		}
		for _, k := range classes {
			if k == c {
				return true
			}
		}
		return false
	}
	var out []float64
	for _, s := range ss {
		if !want(s.class) {
			continue
		}
		if !s.ok {
			out = append(out, durMs(clientTimeout))
			continue
		}
		out = append(out, durMs(s.lat))
	}
	return out
}

// serveRig is one set-up serve-mix run: inputs, a warm server and the
// generator's connections.
type serveRig struct {
	in  *serveInputs
	srv *server
	gen *generator
}

func (r *serveRig) close() error {
	for _, c := range r.gen.conns {
		c.close()
	}
	return r.srv.stop()
}

// setupServe generates the inputs, starts the server and pre-warms its
// cache with one request per hot set.
func setupServe(seed int64, sz serveSize, conns int) (*serveRig, error) {
	in, err := genServeInputs(seed, sz)
	if err != nil {
		return nil, err
	}
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	g := &generator{in: in, srv: srv}
	for i := 0; i < conns; i++ {
		g.conns = append(g.conns, newConn())
	}
	rig := &serveRig{in: in, srv: srv, gen: g}
	for k, body := range in.hotBody {
		code, err := g.conns[0].post(srv.url+"/v1/assign", body, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("answered %d: %.120s", code, g.conns[0].buf.Bytes())
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("pre-warming hot set %d: %w", k, err), rig.close())
		}
	}
	return rig, nil
}

// serveSetups is how many times a serve-mix run sets up; setup_s is
// their median.
const serveSetups = 9

func runServeMix(ctx context.Context, opt options) (*outcome, error) {
	sz := serveFull
	if opt.smoke {
		sz = serveSmoke
	}
	out := &outcome{metrics: map[string]float64{}}
	nSetup := serveSetups
	if opt.smoke || opt.traced {
		nSetup = 1
	}
	var rig *serveRig
	var setupS []float64
	for i := 0; i < nSetup; i++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		r, err := setupServe(opt.seed, sz, opt.workers)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		rig = r
	}
	err := measureServe(opt, rig, out, setupS)
	return out, errors.Join(err, rig.close())
}

func measureServe(opt options, rig *serveRig, out *outcome, setupS []float64) error {
	// Reference assignments: each hot set computed cold on a fresh
	// service, the bytes every hit must reproduce.
	ck := &checker{}
	ref := newRefService()
	for k, body := range rig.in.hotBody {
		a, err := ref.assignment(body)
		if err != nil {
			return fmt.Errorf("reference for hot set %d: %w", k, err)
		}
		ck.ref = append(ck.ref, a)
	}
	g := rig.gen
	g.ck = ck
	s := &serveRun{opt: opt, g: g, sz: rig.in.size, out: out, budget: time.Duration(opt.seconds * float64(time.Second))}
	var err error
	if opt.traced {
		err = s.traced(rig)
	} else {
		err = s.untraced(setupS)
	}
	if err != nil {
		return err
	}

	// Output check: the first cold answers equal a fresh cold compute.
	for i, cc := range ck.coldSeen {
		a, err := ref.assignment(cc.body)
		out.attempted++
		switch {
		case err != nil:
			out.fail("recomputing cold request %d: %v", i, err)
		case !bytes.Equal(a, cc.assignment):
			out.fail("cold answer %d differs from a fresh compute", i)
		}
	}
	return nil
}

// serveRun is one measured serve-mix run.
type serveRun struct {
	opt    options
	g      *generator
	sz     serveSize
	out    *outcome
	budget time.Duration
}

// phase sends ps and counts its requests and failures.
func (s *serveRun) phase(ps []planned, rate float64, nConns int, tr *tracer) (phaseResult, error) {
	runtime.GC()
	res, err := s.g.drive(ps, rate, nConns, tr)
	if err != nil {
		return res, err
	}
	s.out.attempted += len(res.samples)
	s.out.failures = append(s.out.failures, res.failures...)
	return res, nil
}

// share is a fraction of the run's budget.
func (s *serveRun) share(f float64) time.Duration { return time.Duration(f * float64(s.budget)) }

// openWindow sends open-loop window i at the nominal rate.
func (s *serveRun) openWindow(i int) (phaseResult, error) {
	return s.phase(s.g.in.plan(s.sz.window, familyOpen, int64(i)), s.sz.nominal, s.opt.workers, nil)
}

// lateness is the generator's own lateness per request of the samples,
// in ms.
func lateness(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, smp := range ss {
		out[i] = durMs(smp.late)
	}
	return out
}

// withoutLateness returns the samples timed from when the generator sent
// them rather than from when they were due, where it was late itself.
// Waits for a busy connection still count.
func withoutLateness(ss []sample) []sample {
	out := append([]sample(nil), ss...)
	for i := range out {
		out[i].lat -= out[i].late
	}
	return out
}

// checkLate prints the generator's lateness and how much of p50 and p99
// it makes up — how far each drops when every request is timed without
// it — and marks the run invalid beyond late50 or late99.
func (s *serveRun) checkLate(late []float64, p50, p99, net50, net99 float64) {
	share50, share99 := 1-ratio(net50, p50), 1-ratio(net99, p99)
	s.out.note("serve-mix: generator late p50 %.4f ms, p99 %.4f ms; it makes up %.1f%% of p50_ms %.4f and %.1f%% of p99_ms %.4f",
		quantile(late, 0.5), quantile(late, 0.99), 100*share50, p50, 100*share99, p99)
	if share50 > late50 || share99 > late99 {
		s.out.fail("load generator ran late: its lateness makes up %.1f%% of p50_ms (limit %g%%) and %.1f%% of p99_ms (limit %g%%); the run is invalid",
			100*share50, 100*late50, 100*share99, 100*late99)
	}
}

func (s *serveRun) untraced(setupS []float64) error {
	// The untimed first batch lets the heap, the connections and the
	// cache's L1 copies of the variants reach their steady state.
	var walls, p50, p99, net50, net99, late, cold []float64
	for i := 0; i <= s.sz.batchReps; i++ {
		res, err := s.phase(s.g.in.batch, 0, s.opt.workers, nil)
		if err != nil {
			return err
		}
		if i > 0 {
			walls = append(walls, res.wall.Seconds())
		}
	}
	for i := 0; i < s.sz.windows; i++ {
		open, err := s.openWindow(i)
		if err != nil {
			return err
		}
		all := latencies(open.samples)
		p50 = append(p50, quantile(all, 0.5))
		p99 = append(p99, quantile(all, 0.99))
		net := latencies(withoutLateness(open.samples))
		net50 = append(net50, quantile(net, 0.5))
		net99 = append(net99, quantile(net, 0.99))
		late = append(late, lateness(open.samples)...)
		cold = append(cold, latencies(open.samples, classMiss)...)
	}

	m := s.out.metrics
	m["setup_s"] = median(setupS)
	m["wall_s"] = median(walls)
	m["p50_ms"] = median(p50)
	m["p99_ms"] = median(p99)
	m["miss_p50_ms"] = median(cold)
	m["rss_mb"] = peakRSSMB()
	s.checkLate(late, m["p50_ms"], m["p99_ms"], median(net50), median(net99))
	s.out.note("serve-mix: %d timed closed-loop batches of %d requests (%.0f req/s at the median); %d open-loop windows of %d requests at %g/s",
		len(walls), len(s.g.in.batch), float64(len(s.g.in.batch))/m["wall_s"], s.sz.windows, s.sz.window, s.sz.nominal)
	return nil
}

// traced alternates untraced and traced serial replays of the batch on
// one connection, so the client spans tile the wall clock, then runs the
// open loop once for the generator's lateness.
func (s *serveRun) traced(rig *serveRig) error {
	type tracedRep struct {
		res    phaseResult
		led    *ledger
		before counters
		after  counters
	}
	var uWalls []float64
	var uRT []rtStats
	var traced []tracedRep
	until := time.Now().Add(s.share(0.8))
	for len(traced) < minReps || time.Now().Before(until) {
		runtime.GC()
		before := readMem()
		res, err := s.g.drive(s.g.in.batch, 0, 1, nil)
		if err != nil {
			return err
		}
		uRT = append(uRT, rtSince(before))
		s.out.attempted += len(res.samples)
		s.out.failures = append(s.out.failures, res.failures...)
		uWalls = append(uWalls, res.wall.Seconds())

		runtime.GC()
		tr := newTracer()
		rig.srv.mux.tr.Store(tr)
		c0 := readCounters()
		res, err = s.g.drive(s.g.in.batch, 0, 1, tr)
		c1 := readCounters()
		rig.srv.mux.tr.Store(nil)
		if err != nil {
			return err
		}
		s.out.attempted += len(res.samples)
		s.out.failures = append(s.out.failures, res.failures...)
		led, err := tr.ledgerOf(res.wall)
		if err != nil {
			return err
		}
		traced = append(traced, tracedRep{res: res, led: led, before: c0, after: c1})
	}
	// One open-loop window gives the generator's lateness.
	open, err := s.openWindow(0)
	if err != nil {
		return err
	}
	late := lateness(open.samples)
	all, net := latencies(open.samples), latencies(withoutLateness(open.samples))
	s.checkLate(late, quantile(all, 0.5), quantile(all, 0.99), quantile(net, 0.5), quantile(net, 0.99))

	tWalls := make([]float64, len(traced))
	for i, t := range traced {
		tWalls[i] = t.res.wall.Seconds()
	}
	pick := traced[medianIndex(tWalls)]
	m := s.out.metrics
	layerMetrics(m, pick.led, uRT[medianIndex(uWalls)], median(tWalls), median(uWalls))
	counterMetrics(m, pick.after, pick.before)
	zeroMetrics(m, "trace.samples", "trace.ns_per_sample", "fit.calls", "policy.calls",
		"edfvd.admit_ratio", "dbf.admit_ratio", "dbf.only_admits", "sim.ns_per_job", "sim.hc_misses", "par.busy_ratio")

	// Handler time per class from the wrapper's spans, and what the
	// client saw on top of it.
	medUs := func(name string) float64 { return median(usOf(pick.led.byName[name])) }
	m["serve.l1_hit_us"] = medUs("serve.l1")
	m["serve.l2_hit_us"] = medUs("serve.l2")
	m["serve.miss_ms"] = medUs("serve.miss") / 1e3
	m["serve.fit_ms"] = medUs("serve.fit") / 1e3
	handler := map[int]int64{}
	for _, sp := range pick.led.spans {
		if sp.Parent >= 0 {
			handler[sp.Parent] += sp.dur()
		}
	}
	var overhead []float64
	for i, sp := range pick.led.spans {
		if sp.Name == "http" {
			overhead = append(overhead, float64(sp.dur()-handler[i])/1e3)
		}
	}
	m["http.overhead_p50_us"] = median(overhead)
	assigns := pick.after.delta(pick.before, "serve_assign_requests_total")
	m["serve.l1_hit_ratio"] = ratio(pick.after.delta(pick.before, "serve_l1cache_hits_total"), assigns)
	m["serve.l2_hit_ratio"] = ratio(pick.after.delta(pick.before, "serve_cache_hits_total"), assigns)
	var sent [nClasses]float64
	for _, smp := range pick.res.samples {
		sent[smp.class]++
	}
	for c, n := range sent {
		m["mix."+classNames[c]+"_share"] = n / float64(len(pick.res.samples))
	}
	m["loadgen.late_p99_ms"] = quantile(late, 0.99)

	s.out.ledger = pick.led
	s.out.notes = append(s.out.notes, pick.led.table()...)
	if s.opt.spansDir != "" {
		path, err := pick.led.writeSpans(s.opt.spansDir, "serve-mix", s.opt.seed)
		if err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		s.out.note("spans %s (%d spans)", path, len(pick.led.spans))
	}
	return nil
}
