package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"kwsearch/internal/core"
	"kwsearch/internal/dataset"
	"kwsearch/internal/obs"
	"kwsearch/internal/server"
)

// kwsd's defaults: the serving stack the benchmark starts is the one
// `kwsd -data dblp` runs, with its info-level access log discarded.
const (
	admitLimit     = 8
	admitQueue     = 16
	defaultWorkers = 1
	maxDeadline    = time.Minute
	slowlogCap     = 64
	slowlogAfter   = 100 * time.Millisecond
)

// stack is one serving stack: a DBLP engine behind a listening server.
type stack struct {
	engine *core.Engine
	srv    *server.Server
	url    string
}

// startStack builds the DBLP engine and starts the server on a loopback
// port with kwsd's defaults.
func startStack() (*stack, error) {
	e := core.NewRelational(dataset.DBLP(dataset.DefaultDBLPConfig()))
	e.Admit(admitLimit, admitQueue)
	srv := server.New(e, server.Options{
		DefaultWorkers: defaultWorkers,
		MaxDeadline:    maxDeadline,
		Logger:         obs.NewLogger(io.Discard, obs.LevelInfo),
		SlowLog:        obs.NewSlowLog(slowlogCap, slowlogAfter),
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	return &stack{engine: e, srv: srv, url: "http://" + srv.Addr() + "/query"}, nil
}

// stop drains the server; it returns once the serve goroutine exited.
func (s *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.srv.Drain(ctx)
}

// coreRequest is the core.Request the server makes of r.
func coreRequest(r request) core.Request {
	w := r.Workers
	if w == 0 {
		w = defaultWorkers
	}
	return core.Request{Query: r.Query, Workers: w, Deadline: maxDeadline}
}

// timeStarts starts and stops reps stacks one after another and returns
// how long each start took: DBLP generation, engine construction and the
// listen. A collection before each start keeps the last one's garbage
// out of its time.
func timeStarts(reps int) ([]time.Duration, error) {
	var times []time.Duration
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		st, err := startStack()
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0))
		if err := st.stop(); err != nil {
			return nil, fmt.Errorf("stop stack: %w", err)
		}
	}
	return times, nil
}
