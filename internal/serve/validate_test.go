package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

// TestValidateQueryParams is the table-driven spec for the shared
// CLI/HTTP parameter validation: which inputs are rejected, with which
// status and which message.
func TestValidateQueryParams(t *testing.T) {
	const n, maxK = 100, 20
	cases := []struct {
		name       string
		q, k       int
		wantStatus int // 0 = accepted
		wantMsg    string
	}{
		{"valid", 5, 10, 0, ""},
		{"valid k=1", 0, 1, 0, ""},
		{"valid k=maxK", n - 1, maxK, 0, ""},
		{"negative q", -1, 5, http.StatusNotFound, "unknown node -1 (graph has 100 nodes)"},
		{"q = n", n, 5, http.StatusNotFound, "unknown node 100 (graph has 100 nodes)"},
		{"q beyond n", 1 << 20, 5, http.StatusNotFound, "unknown node 1048576 (graph has 100 nodes)"},
		{"k zero", 5, 0, http.StatusBadRequest, "k=0 outside [1,20] supported by the index"},
		{"k negative", 5, -3, http.StatusBadRequest, "k=-3 outside [1,20] supported by the index"},
		{"k beyond index", 5, maxK + 1, http.StatusBadRequest, "k=21 outside [1,20] supported by the index"},
		// Unknown node wins over bad k: the node error is a 404, and the
		// HTTP handler has always checked q first.
		{"both bad", -1, 0, http.StatusNotFound, "unknown node -1 (graph has 100 nodes)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			perr := ValidateQueryParams(tc.q, tc.k, n, maxK)
			if tc.wantStatus == 0 {
				if perr != nil {
					t.Fatalf("rejected valid params: %v", perr)
				}
				return
			}
			if perr == nil {
				t.Fatalf("accepted q=%d k=%d", tc.q, tc.k)
			}
			if perr.Status != tc.wantStatus || perr.Error() != tc.wantMsg {
				t.Fatalf("got %d %q, want %d %q", perr.Status, perr.Error(), tc.wantStatus, tc.wantMsg)
			}
		})
	}
}

// TestHandlerUsesSharedValidation asserts the HTTP handler rejects exactly
// as the shared helper prescribes — status AND message — so any front end
// built on ValidateQueryParams (the rtkquery CLI) matches the daemon.
func TestHandlerUsesSharedValidation(t *testing.T) {
	g, idx := fixture(t)
	_, ts := newTestServer(t, g, idx, Config{})

	for _, tc := range []struct{ q, k int }{
		{-1, 3}, {g.N(), 3}, {5, 0}, {5, idx.K() + 1},
	} {
		perr := ValidateQueryParams(tc.q, tc.k, g.N(), idx.K())
		if perr == nil {
			t.Fatalf("q=%d k=%d: helper accepted a case this test assumes invalid", tc.q, tc.k)
		}
		resp, body := get(t, ts.URL+fmt.Sprintf("/v1/reverse-topk?q=%d&k=%d", tc.q, tc.k))
		if resp.StatusCode != perr.Status {
			t.Errorf("q=%d k=%d: HTTP status %d, helper says %d", tc.q, tc.k, resp.StatusCode, perr.Status)
		}
		var decoded map[string]string
		if err := json.Unmarshal(body, &decoded); err != nil {
			t.Fatalf("q=%d k=%d: non-JSON error body %q", tc.q, tc.k, body)
		}
		if decoded["error"] != perr.Error() {
			t.Errorf("q=%d k=%d: HTTP message %q, helper says %q", tc.q, tc.k, decoded["error"], perr.Error())
		}
	}
}
