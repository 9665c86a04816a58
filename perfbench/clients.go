package main

import (
	"io"
	"net/http"
	"sync/atomic"

	"merlin/pkg/client"
)

// countingTransport wraps one client's HTTP transport and counts what the
// client cannot report itself: every round trip (so retries show as trips
// beyond calls), every refusal (429 or 503, which count as failed
// operations even when a retry later succeeds) and the response bytes read.
type countingTransport struct {
	base    http.RoundTripper
	trips   atomic.Int64
	refused atomic.Int64
	bytes   atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.trips.Add(1)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		t.refused.Add(1)
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// user is one closed-loop client goroutine: a pkg/client for the router
// with its own connection pool and counters, and one for the backend, which
// the traced run uses to fetch the server's spans and to time the direct
// path.
type user struct {
	id    int
	front *client.Client
	back  *client.Client
	tr    *countingTransport
	backT *http.Transport
	calls atomic.Int64 // client calls made through front
}

func newUser(id int, st *stack) *user {
	u := &user{id: id, backT: http.DefaultTransport.(*http.Transport).Clone()}
	u.tr = &countingTransport{base: http.DefaultTransport.(*http.Transport).Clone()}
	u.front = client.New(st.frontURL, client.WithHTTPClient(&http.Client{Transport: u.tr}))
	u.back = client.New(st.backendURL, client.WithHTTPClient(&http.Client{Transport: u.backT}))
	return u
}

// closeIdle releases the user's pooled connections.
func (u *user) closeIdle() {
	u.tr.base.(*http.Transport).CloseIdleConnections()
	u.backT.CloseIdleConnections()
}
