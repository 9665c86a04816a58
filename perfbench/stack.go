package main

import (
	"context"
	"errors"
	"fmt"
	stdnet "net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"merlin/internal/qos"
	"merlin/internal/router"
	"merlin/internal/service"
	"merlin/pkg/client"
)

// qosRate is a deployment setting that differs from the shipped defaults:
// the standard-class tenant rate. The shipped 50 req/s would throttle
// warm-route to about 1% of what the stack serves, and a 429 counts as a
// failed operation. The other is durable-jobs' worker count (see
// workload.workers).
const qosRate = 1e6

// stack is the shipped serving stack booted in this process: merlinrouter in
// front of one durable merlind whose journal and result store live on local
// disk, both serving HTTP on loopback ports.
type stack struct {
	dir        string
	srv        *service.Server
	rt         *router.Router
	backend    *http.Server
	front      *http.Server
	backendURL string
	frontURL   string
	serving    sync.WaitGroup
}

// bootStack starts a fresh stack whose journal lives in dir, which must not
// exist yet, with merlind running workers pool workers (0 is the shipped
// default, GOMAXPROCS). Every other setting is the shipped default of
// cmd/merlind and cmd/merlinrouter except qosRate.
func bootStack(dir string, workers int) (*stack, error) {
	s := &stack{dir: dir}
	srv, err := service.NewDurable(service.Config{JournalDir: filepath.Join(dir, "journal"), Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("boot merlind: %w", err)
	}
	s.srv = srv
	if s.backend, s.backendURL, err = s.serve(srv.Handler()); err != nil {
		s.close()
		return nil, fmt.Errorf("boot merlind: %w", err)
	}
	rt, err := router.New(router.Config{
		Backends: []string{s.backendURL},
		QoS:      qos.Config{Rate: qosRate},
	})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("boot merlinrouter: %w", err)
	}
	s.rt = rt
	if s.front, s.frontURL, err = s.serve(rt.Handler()); err != nil {
		s.close()
		return nil, fmt.Errorf("boot merlinrouter: %w", err)
	}
	// The stack is up when the router answers ready through to the backend.
	c := client.New(s.frontURL)
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.Readyz(context.Background())
		if err == nil {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("stack not ready: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// serve listens on a loopback port and serves h until close.
func (s *stack) serve(h http.Handler) (*http.Server, string, error) {
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return hs, "http://" + ln.Addr().String(), nil
}

// close stops the router, then drains the backend, waits for every serving
// goroutine and removes the journal directory.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shut := func(hs *http.Server) {
		if hs == nil {
			return
		}
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: http shutdown:", err)
		}
	}
	shut(s.front)
	if s.rt != nil {
		s.rt.Close()
	}
	shut(s.backend)
	if s.srv != nil {
		if err := s.srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: merlind shutdown:", err)
		}
	}
	s.serving.Wait()
	if err := os.RemoveAll(s.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
