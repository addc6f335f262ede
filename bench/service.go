package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"pracsim/internal/exp"
	"pracsim/internal/exp/service"
	"pracsim/internal/retry"
)

// The service workload's grid scales, served under the name "bench" in
// the daemon's scale table.
var (
	serviceFull = exp.Scale{Warmup: 5_000, Measured: 10_000, Workloads: []string{"433.milc", "470.lbm"}}
	serviceToy  = exp.Scale{Warmup: 1_000, Measured: 2_000, Workloads: []string{"433.milc"}}
)

const (
	serviceWarmFull = 500 // p98 then has ten samples beyond it
	serviceWarmToy  = 5
)

var serviceSpec = service.GridSpec{Exps: []string{"fig11", "fig12"}, Scale: "bench", Shards: 2}

// serviceRun is one in-process pracsimd on a fresh directory behind an
// httptest listener, one pull worker and one client.
type serviceRun struct {
	scale  exp.Scale
	warm   int
	dir    string
	svc    *service.Server
	ts     *httptest.Server
	client *service.Client
	hc     *http.Client // the event streams the client waits on
	timer  *routeTimer  // traced pass only

	stopSvc    context.CancelFunc
	stopWorker context.CancelFunc
	workerDone chan workerExit

	// The cold job's submit, done event and CSVs-fetched times.
	coldSubmitted, coldFinalized, coldDone time.Time
}

type workerExit struct {
	sum service.WorkerSummary
	err error
}

func openService(in inputs) (instance, error) {
	s := &serviceRun{scale: shifted(serviceFull, in.seed), warm: serviceWarmFull}
	if in.toy {
		s.scale, s.warm = shifted(serviceToy, in.seed), serviceWarmToy
	}
	dir, err := os.MkdirTemp("", "pracbench-service-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	svc, _, err := service.New(service.Options{Dir: dir, Scales: map[string]exp.Scale{"bench": s.scale}})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.svc = svc
	svcCtx, stopSvc := context.WithCancel(context.Background())
	s.stopSvc = stopSvc
	svc.Start(svcCtx)
	var h http.Handler = svc
	if in.traced {
		s.timer = &routeTimer{next: svc}
		h = s.timer
	}
	s.ts = httptest.NewServer(h)
	s.client = service.NewClient(s.ts.URL, "")
	s.hc = &http.Client{}

	wctx, stopWorker := context.WithCancel(context.Background())
	s.stopWorker = stopWorker
	s.workerDone = make(chan workerExit, 1)
	go func() {
		sum, err := service.RunWorker(wctx, service.WorkerOptions{
			URL:  s.ts.URL,
			Name: "bench-worker",
			Poll: retry.Policy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		})
		s.workerDone <- workerExit{sum, err}
	}()
	return s, nil
}

func (s *serviceRun) key() string { return "service/fig11+fig12/" + scaleKey(s.scale) }

// job submits the spec, waits for the job's done event and fetches
// every result CSV. doneAt is when the done event arrived.
func (s *serviceRun) job(ctx context.Context) (st service.JobStatus, csvs map[string]string, doneAt time.Time, err error) {
	if st, err = s.client.Submit(ctx, serviceSpec); err != nil {
		return st, nil, doneAt, err
	}
	fin, err := s.waitDone(ctx, st.ID)
	doneAt = time.Now()
	if err != nil {
		return st, nil, doneAt, err
	}
	if fin.State != "done" {
		return st, nil, doneAt, fmt.Errorf("job %s ended %s: %s", fin.ID, fin.State, fin.Error)
	}
	csvs = map[string]string{}
	for _, name := range fin.Results {
		data, err := s.client.Result(ctx, st.ID, name)
		if err != nil {
			return st, nil, doneAt, err
		}
		csvs[name] = string(data)
	}
	return st, csvs, doneAt, nil
}

// waitDone follows the job's server-sent event stream to its done event:
// completion is seen when the daemon publishes it, with no poll interval
// added to the measured latency.
func (s *serviceRun) waitDone(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return st, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("events for job %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok && event == "done" {
			err := json.Unmarshal([]byte(v), &st)
			return st, err
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, fmt.Errorf("events for job %s ended before done", id)
}

func (s *serviceRun) run(ctx context.Context) outcome {
	o := outcome{metrics: map[string]float64{}}
	o.attempted++
	s.coldSubmitted = time.Now()
	_, cold, finalized, err := s.job(ctx)
	s.coldFinalized, s.coldDone = finalized, time.Now()
	if err != nil {
		o.fail(fmt.Errorf("cold job: %w", err))
		return o
	}
	o.metrics["job_s"] = s.coldFinalized.Sub(s.coldSubmitted).Seconds()
	o.outputs = cold

	lat := make([]float64, 0, s.warm)
	var warmKeys, totalKeys int
	for i := 0; i < s.warm && ctx.Err() == nil; i++ {
		o.attempted++
		start := time.Now()
		st, csvs, _, err := s.job(ctx)
		if err != nil {
			o.fail(fmt.Errorf("warm job %d: %w", i, err))
			continue
		}
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e6)
		warmKeys += st.WarmKeys
		totalKeys += st.TotalKeys
		for name, want := range cold {
			if csvs[name] != want {
				o.mismatches++
			}
		}
	}
	if len(lat) > 0 {
		o.metrics["warm_job_ms.p50"] = percentile(lat, 0.50)
		o.metrics["warm_job_ms.p98"] = percentile(lat, 0.98)
	}
	if totalKeys > 0 {
		o.metrics["service.warm_key_frac"] = float64(warmKeys) / float64(totalKeys)
	}
	// The worker's own failures (lost leases, refused acks) are failed
	// operations too; it is idle now, so stopping it costs one wake-up.
	s.stopWorker()
	if w := <-s.workerDone; w.err != nil {
		o.fail(fmt.Errorf("worker: %w", w.err))
	} else {
		o.attempted += w.sum.Items + w.sum.Failures
		o.failed += w.sum.Failures
	}
	s.workerDone = nil
	return o
}

// counts derives the queue-side timings of the cold job from the timing
// wrapper's request log: how long the job waited for its first lease,
// how long the worker held leases, and how long finalize took after the
// last ack.
func (s *serviceRun) counts() (map[string]float64, error) {
	if s.timer == nil {
		return nil, errors.New("service counts need the traced pass")
	}
	m := s.timer.metrics()
	var firstLease, lastAck time.Time
	var leasedAt time.Time
	var execute time.Duration
	for _, r := range s.timer.log() {
		if r.start.Before(s.coldSubmitted) || r.end.After(s.coldDone) {
			continue
		}
		switch {
		case r.route == "lease" && r.code == http.StatusOK:
			if firstLease.IsZero() {
				firstLease = r.end
			}
			leasedAt = r.end
		case r.route == "ack" && r.code/100 == 2 && !leasedAt.IsZero():
			execute += r.start.Sub(leasedAt)
			lastAck = r.end
			leasedAt = time.Time{}
		}
	}
	if !firstLease.IsZero() {
		m["service.queue_wait_ms"] = float64(firstLease.Sub(s.coldSubmitted).Nanoseconds()) / 1e6
	}
	m["service.execute_s"] = execute.Seconds()
	if !lastAck.IsZero() {
		m["service.finalize_ms"] = float64(s.coldFinalized.Sub(lastAck).Nanoseconds()) / 1e6
	}
	return m, nil
}

func (s *serviceRun) close() {
	if s.workerDone != nil {
		s.stopWorker()
		<-s.workerDone
	}
	s.ts.Close()
	s.stopSvc()
	s.svc.Close()
	os.RemoveAll(s.dir)
}

// timedRoutes are the routes the per-route metrics report.
var timedRoutes = []string{"submit", "lease", "ack", "events", "results"}

// routeTimer is the traced pass's http.Handler wrapper: it records every
// request's route, start, end and status. The untraced repetitions serve
// the daemon unwrapped.
type routeTimer struct {
	next http.Handler
	mu   sync.Mutex
	reqs []request
}

type request struct {
	route      string
	start, end time.Time
	code       int
}

func (t *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	t.next.ServeHTTP(sw, r)
	req := request{route: routeOf(r), start: start, end: time.Now(), code: sw.code}
	t.mu.Lock()
	t.reqs = append(t.reqs, req)
	t.mu.Unlock()
}

func (t *routeTimer) log() []request {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]request(nil), t.reqs...)
}

// metrics reports each timed route's median latency and request count,
// and the non-2xx responses as service.http_errors.
func (t *routeTimer) metrics() map[string]float64 {
	byRoute := map[string][]float64{}
	errs := 0
	for _, r := range t.log() {
		byRoute[r.route] = append(byRoute[r.route], float64(r.end.Sub(r.start).Nanoseconds())/1e6)
		if r.code/100 != 2 {
			errs++
		}
	}
	m := map[string]float64{"service.http_errors": float64(errs)}
	for _, route := range timedRoutes {
		m["service."+route+"_requests"] = float64(len(byRoute[route]))
		if len(byRoute[route]) > 0 {
			m["service."+route+"_ms.p50"] = median(byRoute[route])
		}
	}
	return m
}

func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return "submit"
	case r.Method == http.MethodPost && p == "/v1/lease":
		return "lease"
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/ack"):
		return "ack"
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/heartbeat"):
		return "heartbeat"
	case strings.HasSuffix(p, "/events"):
		return "events"
	case strings.Contains(p, "/results/"):
		return "results"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "status"
	}
	return "other"
}

// statusWriter records the response status; it forwards Flush so the
// daemon's event streams keep working behind the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
