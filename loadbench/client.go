package main

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"time"
)

// requestHeader carries a traced request's id to the server-side span
// recorder.
const requestHeader = "X-Loadbench-Request"

// clientTimeout bounds one round trip.
const clientTimeout = 60 * time.Second

// client is one closed-loop client with a single keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClients(base string) []*client {
	cl := make([]*client, clients)
	for i := range cl {
		tr := &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}
		cl[i] = &client{hc: &http.Client{Transport: tr, Timeout: clientTimeout}, base: base}
	}
	return cl
}

func closeClients(cl []*client) {
	for _, c := range cl {
		c.hc.CloseIdleConnections()
	}
}

// do sends one request and reads the whole reply.  The round trip runs
// from just before the request is written to the last byte of the
// reply.  id > 0 tags a traced request.
func (c *client) do(r request, trace bool, id int) (status int, body []byte, rtt time.Duration, err error) {
	method, path := r.target(trace)
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, 0, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id > 0 {
		req.Header.Set(requestHeader, strconv.Itoa(id))
	}
	began := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(began), err
	}
	body, err = io.ReadAll(resp.Body)
	rtt = time.Since(began)
	resp.Body.Close()
	return resp.StatusCode, body, rtt, err
}
