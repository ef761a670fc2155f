package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"kmeansll/internal/server"
)

// env is one running kmserved: the server, its loopback listener, and the
// benchmark's HTTP client.
type env struct {
	srv *server.Server
	ts  *httptest.Server
	hc  *http.Client
}

// boot starts kmserved with its defaults, path-based fits enabled under
// dataDir.
func boot(dataDir string) *env {
	srv := server.New(server.Config{DataDir: dataDir})
	return &env{
		srv: srv,
		ts:  httptest.NewServer(srv),
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 8},
			Timeout:   60 * time.Second,
		},
	}
}

// close shuts the listener and the fit workers down, waiting for both.
func (e *env) close() {
	e.hc.CloseIdleConnections()
	e.ts.Close()
	e.srv.Close()
}

// do sends one request and reads the whole response.
func (e *env) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.ts.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

const predictPath = "/v1/models/" + modelName + "/predict"

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads.
type jobStatus struct {
	ID         string    `json:"id"`
	State      string    `json:"state"`
	Error      string    `json:"error"`
	QueuedAt   time.Time `json:"queued_at"`
	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at"`
	Version    int       `json:"version"`
	Cost       float64   `json:"cost"`
	Iters      int       `json:"iters"`
}

// fitSample is one fit job as the client saw it: submit to observed done.
type fitSample struct {
	client time.Duration
	st     jobStatus
}

// pollEvery is the job-status polling interval; it bounds how late the
// client sees a finished job.
const pollEvery = time.Millisecond

// fit submits one fit job and polls it to completion.
func (e *env) fit(req []byte) (fitSample, error) {
	start := time.Now()
	code, b, err := e.do(http.MethodPost, "/v1/fit", req)
	if err != nil {
		return fitSample{}, fmt.Errorf("submit fit: %w", err)
	}
	if code != http.StatusAccepted {
		return fitSample{}, fmt.Errorf("submit fit: status %d: %s", code, b)
	}
	var st jobStatus
	for {
		if err := json.Unmarshal(b, &st); err != nil {
			return fitSample{}, fmt.Errorf("fit job status: %w", err)
		}
		if st.State != "queued" && st.State != "running" {
			break
		}
		time.Sleep(pollEvery)
		if code, b, err = e.do(http.MethodGet, "/v1/jobs/"+st.ID, nil); err != nil || code != http.StatusOK {
			return fitSample{}, fmt.Errorf("poll fit job %s: status %d: %v", st.ID, code, err)
		}
	}
	s := fitSample{client: time.Since(start), st: st}
	if st.State != "done" {
		return s, fmt.Errorf("fit job %s %s: %s", st.ID, st.State, st.Error)
	}
	return s, nil
}

// modelInfo is the part of GET /v1/models/{name}?centers=true the
// benchmark reads.
type modelInfo struct {
	Version int         `json:"version"`
	Cost    float64     `json:"cost"`
	Centers [][]float64 `json:"centers"`
}

// model fetches one version of the benchmark's model with its centers.
func (e *env) model(version int) (modelInfo, error) {
	var mi modelInfo
	code, b, err := e.do(http.MethodGet, "/v1/models/"+modelName+"?centers=true&version="+strconv.Itoa(version), nil)
	if err != nil || code != http.StatusOK {
		return mi, fmt.Errorf("get model v%d: status %d: %v", version, code, err)
	}
	return mi, json.Unmarshal(b, &mi)
}

// setUp boots a server and readies it for the measured window: a serve
// workload fits the model it will serve and sends one predict; a fit
// workload runs one fit. Everything a user waits for before the first
// measured op is in here, so work moved into set-up shows in setup_s.
func setUp(w workload, in *inputs, tr *tracer) (*env, error) {
	e := boot(in.dir)
	s, err := e.fit(fitRequest(w.fit, in.fitSeeds[0]))
	if err == nil && w.serve {
		tr.fitSample(s)
		var code int
		if code, _, err = e.do(http.MethodPost, predictPath, in.bodies[0].json); err == nil && code != http.StatusOK {
			err = fmt.Errorf("warm-up predict: status %d", code)
		}
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}
