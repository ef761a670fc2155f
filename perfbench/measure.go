package main

import (
	"net/http"
	"time"
)

// measurement is what a measured window produced: one closed-loop client
// that sends its next op when the previous one has finished and been
// checked.
type measurement struct {
	attempted, ok, failed int
	firstErr              error
	latMs                 []float64 // one per successful op
}

// fail records a failed op.
func (m *measurement) fail(err error) {
	m.failed++
	if m.firstErr == nil {
		m.firstErr = err
	}
}

// done records a successful op that took d.
func (m *measurement) done(d time.Duration) {
	m.ok++
	m.latMs = append(m.latMs, ms(d))
}

// measureServe sends predict requests for d, cycling through the bodies.
// A traced run also attributes every request (tracer.predict).
func measureServe(in *inputs, e *env, ck *checker, tr *tracer, d time.Duration) measurement {
	var m measurement
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		bi := i % len(in.bodies)
		b := &in.bodies[bi]
		m.attempted++
		tr.settle()
		start := time.Now()
		code, resp, err := e.do(http.MethodPost, predictPath, b.json)
		rtt := time.Since(start)
		if err == nil {
			err = ck.predictResponse(bi, code, resp)
		}
		if err == nil && tr.on {
			mv, _ := e.srv.Registry().Get(modelName)
			err = tr.predict(e, predictPath, b, mv.Model, rtt)
		}
		if err != nil {
			m.fail(err)
			continue
		}
		m.done(rtt)
	}
	return m
}

// measureFit runs fit jobs for d, cycling through the fit seeds: submit,
// poll to completion, check the model. A traced run also replays each fit
// layer by layer.
func measureFit(w workload, in *inputs, e *env, ck *checker, tr *tracer, d time.Duration) measurement {
	var m measurement
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		seed := in.fitSeeds[i%len(in.fitSeeds)]
		m.attempted++
		tr.settle()
		s, err := e.fit(fitRequest(w.fit, seed))
		if err == nil {
			err = ck.fit(e, s, seed, tr)
		}
		if err == nil && tr.on {
			tr.fitSample(s)
			err = tr.replayFit(w, in, seed, s.st.Cost)
		}
		if err != nil {
			m.fail(err)
			continue
		}
		m.done(s.client)
	}
	return m
}
