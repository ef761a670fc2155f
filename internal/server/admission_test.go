package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"kmeansll"
)

// publishTestModel puts a tiny 2-center model into the registry directly.
func publishTestModel(t *testing.T, s *Server, name string) {
	t.Helper()
	model, err := kmeansll.NewModel([][]float64{{0, 0}, {100, 100}})
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	if _, err := s.Registry().Publish(name, model, "test"); err != nil {
		t.Fatalf("publish: %v", err)
	}
}

// TestAdmissionShedsAtBound fills the in-flight gate and verifies the shed
// contract deterministically: predict beyond the bound answers 503 with
// Retry-After, the shed is counted on the endpoint's stats row, and once a
// slot frees the same request succeeds — no deadlock, no leaked slot.
func TestAdmissionShedsAtBound(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 2, FitWorkers: 1})
	publishTestModel(t, s, "m")
	body := map[string][][]float64{"points": {{1, 1}}}

	// Occupy every slot from outside the request path, so the shed below is
	// deterministic rather than a race against fast handlers.
	for i := 0; i < 2; i++ {
		if !s.gate.tryAcquire() {
			t.Fatalf("slot %d unavailable on an idle server", i)
		}
	}

	if code := do(t, s, "POST", "/v1/models/m/predict", body, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("predict at full gate: status %d, want 503", code)
	}

	// The Retry-After header is part of the contract, not decoration.
	r2 := httptest.NewRecorder()
	s.ServeHTTP(r2, httptest.NewRequest("POST", "/v1/models/m/predict", nil))
	if r2.Code != http.StatusServiceUnavailable {
		t.Fatalf("second shed: status %d, want 503", r2.Code)
	}
	if ra := r2.Header().Get("Retry-After"); ra == "" {
		t.Errorf("shed response missing Retry-After")
	}

	var stats sysEndpointsResponse
	do(t, s, "GET", "/v1/sys/endpoints", nil, &stats)
	var row *EndpointStats
	for i := range stats.Endpoints {
		if stats.Endpoints[i].Endpoint == "POST /v1/models/{name}/predict" {
			row = &stats.Endpoints[i]
		}
	}
	if row == nil {
		t.Fatalf("no predict row in /v1/sys/endpoints")
	}
	if row.Sheds < 2 {
		t.Errorf("sheds = %d, want ≥ 2", row.Sheds)
	}
	if row.Errors < row.Sheds {
		t.Errorf("sheds (%d) not included in errors (%d)", row.Sheds, row.Errors)
	}

	// Free the slots: the very same request must now be admitted.
	s.gate.release()
	s.gate.release()
	if code := do(t, s, "POST", "/v1/models/m/predict", body, nil); code != http.StatusOK {
		t.Fatalf("predict after release: status %d, want 200", code)
	}
	if got := s.gate.inflight(); got != 0 {
		t.Errorf("inflight after quiescence = %d, want 0 (leaked slot)", got)
	}
}

// TestAdmissionUnderConcurrency runs many concurrent predicts against a tiny
// gate: every response must be either 200 or a well-formed shed, all
// goroutines must finish (no deadlock under -race), and the gate must drain
// back to zero.
func TestAdmissionUnderConcurrency(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 2, FitWorkers: 1})
	publishTestModel(t, s, "m")

	const clients = 16
	const perClient = 25
	var wg sync.WaitGroup
	errs := make(chan string, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest("POST", "/v1/models/m/predict",
					strings.NewReader(`{"points":[[1,1]]}`))
				s.ServeHTTP(rec, req)
				switch rec.Code {
				case http.StatusOK:
				case http.StatusServiceUnavailable:
					if rec.Header().Get("Retry-After") == "" {
						errs <- "503 without Retry-After"
					}
				default:
					errs <- rec.Result().Status
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("unexpected response under load: %s", e)
	}
	if got := s.gate.inflight(); got != 0 {
		t.Errorf("inflight after drain = %d, want 0", got)
	}
}

// TestAdmissionDisabled checks MaxInflight < 0 switches the gate off
// entirely: the sys table reports it disabled and predict is never shed.
func TestAdmissionDisabled(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: -1, FitWorkers: 1})
	publishTestModel(t, s, "m")
	if s.gate != nil {
		t.Fatalf("gate built despite MaxInflight=-1")
	}
	var adm admissionSysResponse
	if code := do(t, s, "GET", "/v1/sys/admission", nil, &adm); code != http.StatusOK {
		t.Fatalf("GET /v1/sys/admission: %d", code)
	}
	if adm.Enabled || adm.MaxInflight != 0 {
		t.Errorf("disabled gate reported %+v", adm)
	}
	body := map[string][][]float64{"points": {{1, 1}}}
	if code := do(t, s, "POST", "/v1/models/m/predict", body, nil); code != http.StatusOK {
		t.Fatalf("predict with gate disabled: %d", code)
	}
}
