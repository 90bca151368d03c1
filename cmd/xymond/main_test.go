package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xymon"
)

func testServer(t *testing.T) *server {
	t.Helper()
	srv := &server{}
	sys, err := xymon.New(xymon.Options{
		Delivery: xymon.DeliveryFunc(func(r *xymon.Report) error {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			srv.reports = append(srv.reports, r)
			return nil
		}),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.sys = sys
	return srv
}

const testSub = `subscription HttpWatch
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://w.example/" and modified self
report when immediate`

func TestSubscribeAndPushFlow(t *testing.T) {
	srv := testServer(t)

	// Subscribe via raw body.
	rec := httptest.NewRecorder()
	srv.handleSubscribe(rec, httptest.NewRequest("POST", "/subscribe", strings.NewReader(testSub)))
	if rec.Code != http.StatusCreated || !strings.Contains(rec.Body.String(), "HttpWatch") {
		t.Fatalf("subscribe: %d %s", rec.Code, rec.Body.String())
	}

	// Duplicate or garbage subscriptions are rejected.
	rec = httptest.NewRecorder()
	srv.handleSubscribe(rec, httptest.NewRequest("POST", "/subscribe", strings.NewReader(testSub)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("duplicate subscribe: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.handleSubscribe(rec, httptest.NewRequest("POST", "/subscribe", strings.NewReader("nope")))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("garbage subscribe: %d", rec.Code)
	}

	// Push two versions of a page.
	rec = httptest.NewRecorder()
	srv.handlePush(rec, httptest.NewRequest("POST", "/push?url=http://w.example/a.xml",
		strings.NewReader("<p><v>1</v></p>")))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "0 notifications") {
		t.Fatalf("push v1: %d %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	srv.handlePush(rec, httptest.NewRequest("POST", "/push?url=http://w.example/a.xml",
		strings.NewReader("<p><v>2</v></p>")))
	if !strings.Contains(rec.Body.String(), "1 notifications") {
		t.Fatalf("push v2: %s", rec.Body.String())
	}

	// The report shows up on the web view.
	rec = httptest.NewRecorder()
	srv.handleReports(rec, httptest.NewRequest("GET", "/reports", nil))
	if !strings.Contains(rec.Body.String(), "UpdatedPage") {
		t.Errorf("reports page: %s", rec.Body.String())
	}

	// Stats are JSON with the processed counters.
	rec = httptest.NewRecorder()
	srv.handleStats(rec, httptest.NewRequest("GET", "/stats", nil))
	var st xymon.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Manager.DocsProcessed != 2 || st.Manager.Subscriptions != 1 {
		t.Errorf("stats = %+v", st.Manager)
	}
	// Both pushes raised a strong alert; the ratio that shows a bad event
	// order on a live system is served with the counters it derives from.
	if m := st.Matcher; m.MatchCalls != 2 || m.CellProbes == 0 || m.ProbesPerMatch != float64(m.CellProbes)/2 {
		t.Errorf("matcher stats = %+v", m)
	}

	// Unsubscribe.
	rec = httptest.NewRecorder()
	srv.handleUnsubscribe(rec, httptest.NewRequest("POST", "/unsubscribe?name=HttpWatch", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("unsubscribe: %d %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	srv.handleUnsubscribe(rec, httptest.NewRequest("POST", "/unsubscribe?name=HttpWatch", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("double unsubscribe: %d", rec.Code)
	}
}

func TestPushErrors(t *testing.T) {
	srv := testServer(t)
	rec := httptest.NewRecorder()
	srv.handlePush(rec, httptest.NewRequest("POST", "/push", strings.NewReader("<a/>")))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("push without url: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.handlePush(rec, httptest.NewRequest("POST", "/push?url=u", strings.NewReader("not-xml <")))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("push bad xml: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.handlePushHTML(rec, httptest.NewRequest("POST", "/pushhtml", strings.NewReader("x")))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("pushhtml without url: %d", rec.Code)
	}
}

func TestPushHTML(t *testing.T) {
	srv := testServer(t)
	rec := httptest.NewRecorder()
	srv.handleSubscribe(rec, httptest.NewRequest("POST", "/subscribe", strings.NewReader(`subscription H
monitoring select <M url=URL/> where URL extends "http://h.example/" and self contains "xyleme"
report when immediate`)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("subscribe: %d %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	srv.handlePushHTML(rec, httptest.NewRequest("POST", "/pushhtml?url=http://h.example/x.html",
		strings.NewReader("<html>Xyleme!</html>")))
	if !strings.Contains(rec.Body.String(), "1 notifications") {
		t.Errorf("pushhtml: %s", rec.Body.String())
	}
}

func TestIndexPage(t *testing.T) {
	srv := testServer(t)
	rec := httptest.NewRecorder()
	srv.handleIndex(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "subscription") {
		t.Errorf("index: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.handleIndex(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown path: %d", rec.Code)
	}
}

func TestSaveEndpoint(t *testing.T) {
	srv := testServer(t)
	// Without a data dir, save fails...
	rec := httptest.NewRecorder()
	srv.handleSave(rec, httptest.NewRequest("POST", "/save", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("save without dir: %d", rec.Code)
	}
	// ...but an explicit dir works.
	dir := t.TempDir()
	srv.handlePush(httptest.NewRecorder(),
		httptest.NewRequest("POST", "/push?url=http://s.example/a.xml", strings.NewReader("<a><b>1</b></a>")))
	rec = httptest.NewRecorder()
	srv.handleSave(rec, httptest.NewRequest("POST", "/save?dir="+dir, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("save: %d %s", rec.Code, rec.Body.String())
	}
}
