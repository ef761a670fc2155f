package server

import (
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kmeansll"
)

// TestFitSubmitAnswersQueued is the regression test for the fit-submit
// response race: POST /v1/fit used to read the job's status after the job
// was queued, so a fit that finished before the handler answered made the
// 202 say "done". Here the executor always settles first: the handler's
// "enqueued" log line, written between the submit and the answer, waits
// until the real fit has run and published. The answer must still say
// queued.
func TestFitSubmitAnswersQueued(t *testing.T) {
	settled := make(chan struct{})
	s := newTestServer(t, Config{Logf: func(format string, _ ...any) {
		if strings.HasPrefix(format, "fit %s enqueued") {
			<-settled
		}
	}})
	s.jobs.Stop()
	var m *JobManager
	m = newJobManager(s.registry, 1, 0, func(j *Job) {
		m.run(j)
		close(settled)
	})
	s.jobs = m

	var job JobStatus
	code := do(t, s, "POST", "/v1/fit", fitRequest{
		Model:  "fast",
		Points: blobPoints(40, 2, 2, 1),
		Config: fitConfig{K: 2, Seed: 3},
	}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/fit: status %d", code)
	}
	if job.State != JobQueued || job.StartedAt != "" || job.Version != 0 {
		t.Fatalf("submit answered state %q started %q version %d, want a queued job", job.State, job.StartedAt, job.Version)
	}
	j, ok := m.Get(job.ID)
	if !ok {
		t.Fatalf("job %s not retained", job.ID)
	}
	if st := j.Status(); st.State != JobDone {
		t.Fatalf("job settled as %q (err %q) before the answer, want done", st.State, st.Error)
	}
}

// TestStopPriorityOverQueuedJobs is the regression test for the worker
// select race: with the stop channel closed AND the queue non-empty, select
// picks a case at random, so workers used to keep executing queued fits
// after Stop. The nested non-blocking stop check must win instead.
//
// The interleaving is driven deterministically through the injectable job
// executor: one worker is parked inside a running job, more jobs are queued
// behind it, Stop is called (closing the stop channel), and only then is the
// running job released. From that moment the worker faces exactly the racy
// state; it must exit without executing anything else. The scenario repeats
// because the old behavior only misfired with ~1/2 probability per select.
func TestStopPriorityOverQueuedJobs(t *testing.T) {
	points := [][]float64{{0, 0}, {1, 1}, {2, 2}}
	for attempt := 0; attempt < 20; attempt++ {
		var executions atomic.Int32
		started := make(chan struct{})
		release := make(chan struct{})
		stub := func(*Job) {
			if executions.Add(1) == 1 {
				close(started)
				<-release
			}
		}
		m := newJobManager(NewRegistry(0), 1, 16, stub)

		first, _, err := m.SubmitSpec(FitSpec{Model: "m", Points: points, Config: testFitConfig()})
		if err != nil {
			t.Fatal(err)
		}
		<-started // the single worker is now parked inside `first`

		queued := make([]*Job, 0, 5)
		for i := 0; i < 5; i++ {
			j, _, err := m.SubmitSpec(FitSpec{Model: "m", Points: points, Config: testFitConfig()})
			if err != nil {
				t.Fatal(err)
			}
			queued = append(queued, j)
		}

		stopped := make(chan struct{})
		go func() {
			m.Stop()
			close(stopped)
		}()
		// Wait until Stop has actually closed the stop channel, so the
		// worker's next select sees both cases ready.
		waitClosed(t, m.stop)
		close(release)

		select {
		case <-stopped:
		case <-time.After(5 * time.Second):
			t.Fatal("Stop did not return")
		}
		if got := executions.Load(); got != 1 {
			t.Fatalf("attempt %d: worker executed %d jobs after Stop; want only the in-flight one", attempt, got)
		}
		for i, j := range queued {
			if st := j.Status().State; st != JobCanceled {
				t.Fatalf("attempt %d: queued job %d state %q, want %q", attempt, i, st, JobCanceled)
			}
		}
		_ = first
	}
}

func waitClosed(t *testing.T, ch chan struct{}) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-ch:
			return
		case <-deadline:
			t.Fatal("stop channel never closed")
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
}

func testFitConfig() kmeansll.Config { return kmeansll.Config{K: 1} }
