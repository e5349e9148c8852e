package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"racelogic"
	"racelogic/internal/server"
)

// service is one set-up of the program under test: the database, the
// real internal/server handler, and an in-process loopback listener.
type service struct {
	db      *racelogic.Database
	hs      *http.Server
	base    string // http://127.0.0.1:port
	served  chan error
	dataDir string // durable copy, removed on close; "" when in memory
	// warmRounds is how many warm-up rounds set-up took.
	warmRounds int
}

// env is what a set-up needs beyond the workload inputs.
type env struct {
	in   *inputs
	img  *crashImage // mixed-durable only
	work string      // scratch directory for durable copies
	reps int         // set-ups so far, to name each durable copy
}

// setUp starts a fresh service and warms it up.  The returned duration
// runs from NewDatabase or Open to the end of warm-up: the set-up a
// deployment pays before it serves its first request.  Copying the
// crash image and quiescing come first and are not timed.  spans, when
// set, records a server span around every tagged request.
func (e *env) setUp(spans *recorder) (*service, time.Duration, error) {
	s := &service{}
	var src string
	var want recovery
	if e.img != nil {
		src, want = e.img.expect(true)
		e.reps++
		s.dataDir = filepath.Join(e.work, fmt.Sprintf("db-%d", e.reps))
		if err := copyDir(src, s.dataDir); err != nil {
			return nil, 0, err
		}
	}
	quiesce()
	began := time.Now()
	var err error
	if e.img != nil {
		s.db, err = openCopy(s.dataDir, want)
	} else {
		s.db, err = racelogic.NewDatabase(e.in.corpus, e.in.dbOpts...)
	}
	if err != nil {
		return nil, 0, err
	}
	if err = s.start(spans); err == nil {
		err = s.warmUp(e.in)
	}
	if err != nil {
		_ = s.close() // the set-up error is the one worth reporting
		return nil, 0, err
	}
	return s, time.Since(began), nil
}

// start serves the database through server.New on a loopback port.
func (s *service) start(spans *recorder) error {
	srv, err := server.New(server.Config{DB: s.db, CacheSize: cacheSize, DefaultTopK: topK})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var h http.Handler = srv
	if spans != nil {
		h = spans.wrap(srv)
	}
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.base = "http://" + ln.Addr().String()
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	return nil
}

// warmUp sends rounds of warm-up searches at the workload's concurrency
// until warmupQuiet rounds in a row compile no engine, so the timed
// window finds the engines it needs already pooled.  Warm-up queries
// are distinct from everything the window sends, so no cache entry
// they leave is ever hit.
func (s *service) warmUp(in *inputs) error {
	cl := newClients(s.base)
	defer closeClients(cl)
	chk := newChecker(in, nil)
	quiet := 0
	perRound := len(cl) * warmupPerClient
	for start := 0; start+perRound <= len(in.warmup); start += perRound {
		round := in.warmup[start : start+perRound]
		s.warmRounds++
		var mu sync.Mutex
		built := 0
		var firstErr error
		var wg sync.WaitGroup
		for c := range cl {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(round); i += len(cl) {
					status, body, _, err := cl[c].do(round[i], false, 0)
					var out outcome
					if err == nil {
						out, err = chk.check(round[i], status, body)
					}
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					built += out.enginesBuilt
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		if firstErr != nil {
			return fmt.Errorf("warm-up: %w", firstErr)
		}
		if built > 0 {
			quiet = 0
		} else if quiet++; quiet == warmupQuiet {
			return nil
		}
	}
	return errors.New("warm-up: engines were still being compiled after the last round")
}

// quiesce flushes dirty pages and collects the heap, so the timed work
// that follows pays neither for the files written nor for the garbage
// left before it.
func quiesce() {
	syscall.Sync()
	runtime.GC()
}

// close stops the listener, waits for Serve to return, and closes the
// database.  A durable copy is deleted afterwards.
func (s *service) close() error {
	var err error
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = s.hs.Shutdown(ctx)
		cancel()
		if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
	}
	if s.db != nil {
		if cerr := s.db.Close(); err == nil {
			err = cerr
		}
	}
	if s.dataDir != "" {
		if rerr := os.RemoveAll(s.dataDir); err == nil {
			err = rerr
		}
	}
	return err
}
