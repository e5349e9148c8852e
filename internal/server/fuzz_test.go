package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"racelogic"
)

// FuzzSearchRequest posts arbitrary bodies to the POST /search handler
// over a tiny in-memory lanes database.  Every body must be answered
// 200 or 400 without a panic; a 400 carries an error message, and a 200
// answers a body that itself strictly decodes as one request object or
// one request array, with one SearchResponse for an object body or an
// array holding one response per request item for an array body.
func FuzzSearchRequest(f *testing.F) {
	db, err := racelogic.NewDatabase([]string{"ACGTACGT", "ACGTACCT", "TTTTTTTT", "ACGTAC", "GATTACA"},
		racelogic.WithBackend(racelogic.BackendLanes))
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{DB: db, CacheSize: 8, DefaultTopK: 3, MaxQueryLen: 16})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"query":"ACGTACGT","top_k":2,"threshold":9}`))
	f.Add([]byte(`[{"query":"ACGT"},{"query":"GATTACA","full_scan":true},{"query":"TTTT","top_k":-1}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"query":"ACGT","bogus":1}`))
	f.Add([]byte(`{"query":"ACGT"} trailing garbage`))
	f.Add([]byte(`[{"query":"acgtac"}] ]`))
	f.Add([]byte(`{"query":"acgtacgt"}`))
	f.Add([]byte(`{"query":"WARDRAW"}`))
	f.Add([]byte(`[{"query":"ACGT"},{"query":"AC-GT"}]`))
	// One item past the limit, kept short: minimizing a long input
	// would spend the fuzz budget.
	f.Add([]byte("[" + strings.Repeat(`{},`, MaxBatchQueries) + `{}]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
		out := rec.Body.Bytes()
		switch rec.Code {
		case http.StatusBadRequest:
			var e errorResponse
			if err := strictDecode(out, &e); err != nil || e.Error == "" {
				t.Fatalf("400 body %q is not an error response: %v", out, err)
			}
		case http.StatusOK:
			if !jsonArrayBody(body) {
				var req SearchRequest
				if err := strictDecode(body, &req); err != nil {
					t.Fatalf("request %q answered 200 but is not one request object: %v", body, err)
				}
				var resp SearchResponse
				if err := strictDecode(out, &resp); err != nil {
					t.Fatalf("200 body %q is not one SearchResponse: %v", out, err)
				}
				return
			}
			var items []SearchRequest
			if err := strictDecode(body, &items); err != nil {
				t.Fatalf("request %q answered 200 but is not one request array: %v", body, err)
			}
			var resps []SearchResponse
			if err := strictDecode(out, &resps); err != nil {
				t.Fatalf("200 body %q is not a SearchResponse array: %v", out, err)
			}
			if len(resps) != len(items) {
				t.Fatalf("%d responses for %d request items", len(resps), len(items))
			}
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
	})
}
