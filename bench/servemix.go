package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"routeless/internal/metrics"
	"routeless/internal/scenario"
	"routeless/internal/serve"
)

// serveClients is both the closed loop's client count and the server's
// worker-pool size: one connection per core of the 2-core reference
// box. The loop is closed — a client sends its next request only when
// the previous response has completed — so a slower server receives
// less load; serve.client_gap_us_p50 shows how long the generator
// itself sat between a response and the next request.
const serveClients = 2

// drainSeconds is how far past its traffic duration every scenario run
// advances (Run.End); the client cannot ask the server for it.
const drainSeconds = 5

// serveSetups is how many times the cold start is repeated for
// setup_s's median.
const serveSetups = 15

// serveCycle is one client cycle: POST /runs → tail the journal to EOF
// → GET status → POST /snapshot?at= → POST /resume → tail the resumed
// journal. Durations are seconds.
type serveCycle struct {
	firstByte, done, snapshot, wall         float64
	post, tail, status, resumePost, resTail float64
	gap                                     float64 // previous response end → this request written
	journalBytes                            int     // both runs of the cycle
	nodes                                   int     // the document's N
}

// serveLoad is the outcome of the timed closed loop.
type serveLoad struct {
	setups   []float64
	cycles   []serveCycle
	failed   int
	window   float64
	allocs   float64 // per cycle, client side included: one process
	bytes    float64 // per cycle
	growth   float64 // post-GC heap growth per run; the server never evicts
	nodes    int
	problems []string

	// A sampled document and its in-process run, finished.
	sampleDoc []byte
	sample    *scenario.Run
}

// serveClient is one closed-loop client.
type serveClient struct {
	base string
	http *http.Client
}

func (c *serveClient) post(path string, body []byte, want int) ([]byte, error) {
	resp, err := c.http.Post(c.base+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, data)
	}
	return data, nil
}

// create posts body to path and returns the new run's id.
func (c *serveClient) create(path string, body []byte) (string, error) {
	data, err := c.post(path, body, http.StatusCreated)
	if err != nil {
		return "", err
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &created); err != nil || created.ID == "" {
		return "", fmt.Errorf("POST %s: bad response %q", path, data)
	}
	return created.ID, nil
}

// tail streams a run's journal to EOF and stamps its first byte.
func (c *serveClient) tail(id string) (data []byte, first time.Time, err error) {
	resp, err := c.http.Get(c.base + "/runs/" + id + "/journal")
	if err != nil {
		return nil, first, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, first, fmt.Errorf("GET journal %s: status %d", id, resp.StatusCode)
	}
	var one [1]byte
	if _, err := io.ReadFull(resp.Body, one[:]); err != nil {
		return nil, first, fmt.Errorf("GET journal %s: %w", id, err)
	}
	first = time.Now()
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, first, err
	}
	return append(one[:], rest...), first, nil
}

// status fetches a finished run's status document and fails on an
// oracle error or an unfinished run.
func (c *serveClient) status(id string) error {
	resp, err := c.http.Get(c.base + "/runs/" + id)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st struct {
		Done bool   `json:"done"`
		Err  string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || !st.Done || st.Err != "" {
		return fmt.Errorf("run %s: status %d done=%v error=%q", id, resp.StatusCode, st.Done, st.Err)
	}
	return nil
}

// cycle runs one document through the server. It returns the streamed
// journal of the uninterrupted run for the sampled batch comparison.
func (c *serveClient) cycle(doc []byte, rep int, prevEnd time.Time, tr *tracer) (out serveCycle, full []byte, err error) {
	sc, err := scenario.Parse(doc) // the client needs the run's end time and epochs
	if err != nil {
		return out, nil, err
	}
	out.nodes = sc.N
	sent := time.Now()
	if !prevEnd.IsZero() {
		out.gap = sent.Sub(prevEnd).Seconds()
	}
	id, err := c.create("/runs", doc)
	if err != nil {
		return out, nil, err
	}
	posted := time.Now()
	full, first, err := c.tail(id)
	if err != nil {
		return out, nil, err
	}
	done := time.Now()
	if err := c.status(id); err != nil {
		return out, nil, err
	}
	statused := time.Now()
	at := snapshotShare * (sc.Duration + drainSeconds)
	snap, err := c.post(fmt.Sprintf("/runs/%s/snapshot?at=%g", id, at), nil, http.StatusOK)
	if err != nil {
		return out, nil, err
	}
	snapped := time.Now()
	rid, err := c.create("/runs/"+id+"/resume", snap)
	if err != nil {
		return out, nil, err
	}
	resumed := time.Now()
	suffix, _, err := c.tail(rid)
	if err != nil {
		return out, nil, err
	}
	end := time.Now()
	if !spliced(full, suffix, prefixRecords(sc, at)) {
		return out, nil, fmt.Errorf("run %s: prefix + resumed journal != uninterrupted journal", id)
	}

	out.post = posted.Sub(sent).Seconds()
	out.firstByte = first.Sub(sent).Seconds()
	out.tail = done.Sub(posted).Seconds()
	out.done = done.Sub(sent).Seconds()
	out.status = statused.Sub(done).Seconds()
	out.snapshot = snapped.Sub(statused).Seconds()
	out.resumePost = resumed.Sub(snapped).Seconds()
	out.resTail = end.Sub(resumed).Seconds()
	out.wall = end.Sub(sent).Seconds()
	out.journalBytes = len(full) + len(suffix)

	root := tr.add("cycle", rep, 0, sent, end)
	tr.add("serve.post", rep, root, sent, posted)
	tr.add("serve.tail", rep, root, posted, done)
	tr.add("serve.status", rep, root, done, statused)
	tr.add("serve.snapshot", rep, root, statused, snapped)
	tr.add("serve.resume_post", rep, root, snapped, resumed)
	tr.add("serve.resume_tail", rep, root, resumed, end)
	return out, full, nil
}

// serveUp is the cold start setup_s times on this workload: worker pool,
// route table and loopback listener up, and a first run of doc streamed
// to its end. (Bringing the listener up alone takes ~0.2 ms of goroutine
// starts and syscalls, which no bound could hold.)
func serveUp(doc []byte) (*serve.Server, *httptest.Server, error) {
	srv := serve.New(serveClients)
	ts := httptest.NewServer(srv.Handler())
	c := &serveClient{base: ts.URL, http: ts.Client()}
	id, err := c.create("/runs", doc)
	if err == nil {
		_, _, err = c.tail(id)
	}
	if err != nil {
		ts.Close()
		srv.Close()
		return nil, nil, err
	}
	return srv, ts, nil
}

// runServe times set-up, then drives the closed loop for the window
// after one discarded warm-up cycle per client. Every cycle checks the
// journal splice; each client's first timed cycle is also compared,
// after the loop, with an in-process run of the same document.
func runServe(w workload, seed int64, seconds float64, tr *tracer) (serveLoad, error) {
	var l serveLoad
	first, err := document(w, seed, 0)
	if err != nil {
		return l, err
	}
	var srv *serve.Server
	var ts *httptest.Server
	for i := 0; i < serveSetups; i++ {
		if ts != nil {
			ts.Close()
			srv.Close()
		}
		begin := time.Now()
		if srv, ts, err = serveUp(first); err != nil {
			return l, err
		}
		l.setups = append(l.setups, time.Since(begin).Seconds())
	}
	defer srv.Close()
	defer ts.Close()

	type sampled struct {
		doc, streamed []byte
	}
	var (
		mu      sync.Mutex
		samples []sampled
	)
	// drive runs body once per client, concurrently, each with its own
	// connection, and waits for all of them.
	drive := func(body func(k int, c *serveClient)) {
		var wg sync.WaitGroup
		for k := 0; k < serveClients; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				c := &serveClient{base: ts.URL, http: &http.Client{Transport: &http.Transport{}}}
				defer c.http.CloseIdleConnections()
				body(k, c)
			}(k)
		}
		wg.Wait()
	}
	// one generates document n and runs it through a client's cycle.
	one := func(c *serveClient, n int, prevEnd time.Time) (doc []byte, cyc serveCycle, full []byte, err error) {
		if doc, err = document(w, seed, n); err == nil {
			cyc, full, err = c.cycle(doc, n, prevEnd, tr)
		}
		return doc, cyc, full, err
	}
	warmUp := func(k int, c *serveClient) {
		if _, _, _, err := one(c, k, time.Time{}); err != nil {
			mu.Lock()
			l.problems = append(l.problems, fmt.Sprintf("warm-up: %v", err))
			mu.Unlock()
		}
	}
	var deadline time.Time
	timed := func(k int, c *serveClient) {
		// Client k posts documents first, first+serveClients, …, past
		// the warm-up's, so no two cycles share a document.
		first := serveClients + k
		var prevEnd time.Time
		for n := first; time.Now().Before(deadline); n += serveClients {
			doc, cyc, full, err := one(c, n, prevEnd)
			prevEnd = time.Now()
			mu.Lock()
			if err != nil {
				l.failed++
				l.problems = append(l.problems, fmt.Sprintf("cycle %d: %v", n, err))
			} else {
				l.cycles = append(l.cycles, cyc)
				l.nodes = cyc.nodes
				if n == first {
					samples = append(samples, sampled{doc, full})
				}
			}
			mu.Unlock()
		}
	}

	drive(warmUp)
	before, m0 := heapAlloc()
	begin := time.Now()
	deadline = begin.Add(time.Duration(seconds * float64(time.Second)))
	drive(timed)
	l.window = time.Since(begin).Seconds()
	after, m1 := heapAlloc()
	if n := float64(len(l.cycles) + l.failed); n > 0 {
		l.allocs = float64(m1.Mallocs-m0.Mallocs) / n
		l.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / n
		l.growth = (after - before) / (2 * n) // two runs a cycle
	}

	for _, s := range samples {
		sc, err := scenario.Parse(s.doc)
		if err != nil {
			return l, err
		}
		run, err := scenario.Build(sc)
		if err != nil {
			return l, err
		}
		var batch bytes.Buffer
		run.SetJournal(metrics.NewJournal(&batch))
		if _, err := run.Finish(); err != nil {
			l.problems = append(l.problems, fmt.Sprintf("in-process run of a sampled document: %v", err))
		}
		if !bytes.Equal(batch.Bytes(), s.streamed) {
			l.problems = append(l.problems, "streamed journal != in-process journal of the same document")
		}
		l.sampleDoc, l.sample = s.doc, run
	}
	if len(samples) != serveClients {
		l.problems = append(l.problems, fmt.Sprintf("sampled %d cycles for the batch comparison, want %d", len(samples), serveClients))
	}
	return l, nil
}

// endToEndServe folds the closed loop into the end-to-end metrics.
func endToEndServe(v values, l serveLoad) {
	v.median("setup_s", l.setups)
	v.median("run_wall_s", column(l.cycles, func(c serveCycle) float64 { return c.wall }))
	v.set("run_allocs", l.allocs)
	v.set("run_alloc_bytes", l.bytes)
	v.set("retained_bytes_per_node", l.growth/float64(max(l.nodes, 1)))
	v.median("first_byte_ms_p50", column(l.cycles, func(c serveCycle) float64 { return c.firstByte * 1e3 }))
	v.median("done_ms_p50", column(l.cycles, func(c serveCycle) float64 { return c.done * 1e3 }))
	v.median("snapshot_ms_p50", column(l.cycles, func(c serveCycle) float64 { return c.snapshot * 1e3 }))
	v.set("cycles_per_s", float64(len(l.cycles))/l.window)
}
