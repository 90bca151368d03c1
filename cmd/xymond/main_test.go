package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xymon"
	"xymon/internal/faults"
	"xymon/internal/stream"
	"xymon/internal/wal"
)

func testServer(t *testing.T) *server { return newTestServer(t, xymon.Options{}) }

func newTestServer(t *testing.T, opts xymon.Options) *server {
	t.Helper()
	srv := &server{}
	opts.Delivery = xymon.DeliveryFunc(func(r *xymon.Report) error {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		srv.reports = append(srv.reports, r)
		return nil
	})
	sys, err := xymon.New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { sys.Close() })
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

// TestJournalFailureStatus: a subscribe or unsubscribe whose journal
// write failed is the server's failure (500), an unknown name is 404 and
// a bad subscription stays 400.
func TestJournalFailureStatus(t *testing.T) {
	in := faults.New(1)
	srv := newTestServer(t, xymon.Options{DurableDir: t.TempDir(), Faults: in})
	do := func(h http.HandlerFunc, target, body string) int {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("POST", target, strings.NewReader(body)))
		return rec.Code
	}
	if code := do(srv.handleSubscribe, "/subscribe", testSub); code != http.StatusCreated {
		t.Fatalf("subscribe: %d", code)
	}
	in.Enable(faults.Rule{Point: faults.Point(wal.OpAppend), Mode: faults.ModeError, Match: "reporter"})
	other := strings.Replace(testSub, "HttpWatch", "Other", 1)
	for _, c := range []struct {
		what string
		code int
		want int
	}{
		{"subscribe, journal failing", do(srv.handleSubscribe, "/subscribe", other), http.StatusInternalServerError},
		{"unsubscribe, journal failing", do(srv.handleUnsubscribe, "/unsubscribe?name=HttpWatch", ""), http.StatusInternalServerError},
		{"unsubscribe of an unknown name", do(srv.handleUnsubscribe, "/unsubscribe?name=Nobody", ""), http.StatusNotFound},
		{"garbage subscribe", do(srv.handleSubscribe, "/subscribe", "nope"), http.StatusBadRequest},
	} {
		if c.code != c.want {
			t.Errorf("%s: %d, want %d", c.what, c.code, c.want)
		}
	}
	in.Clear()
	if code := do(srv.handleSubscribe, "/subscribe", other); code != http.StatusCreated {
		t.Errorf("subscribe once the journal works: %d", code)
	}
	// The failed unsubscribe did not happen.
	if code := do(srv.handleUnsubscribe, "/unsubscribe?name=HttpWatch", ""); code != http.StatusOK {
		t.Errorf("unsubscribe once the journal works: %d", code)
	}
}

// daemonArgsEnv carries the command line of the daemon TestKill9Restart
// runs in a child process.
const daemonArgsEnv = "XYMOND_DAEMON_ARGS"

// TestDaemonChild is the child body: the daemon itself, run by main with
// the arguments in daemonArgsEnv. Standalone it only skips.
func TestDaemonChild(t *testing.T) {
	args := os.Getenv(daemonArgsEnv)
	if args == "" {
		t.Skip("daemon child; driven by TestKill9Restart")
	}
	os.Args = append([]string{"xymond"}, strings.Fields(args)...)
	main()
}

// TestKill9Restart kills a -durable daemon with SIGKILL right after it
// answered a push and restarts it on the same directory: the subscription
// is still registered, the page is still at the version it acknowledged
// (re-pushing it raises nothing, where a forgotten page would be New),
// and the next version raises its UpdatedPage report.
func TestKill9Restart(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec harness skipped in -short")
	}
	dir := t.TempDir()
	start := func() (*exec.Cmd, string) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		cmd := exec.Command(os.Args[0], "-test.run=^TestDaemonChild$")
		cmd.Env = append(os.Environ(), daemonArgsEnv+"=-addr "+addr+" -durable "+dir+" -crawl 1h")
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cmd.Process.Kill(); _ = cmd.Wait() })
		base := "http://" + addr
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			if resp, err := http.Get(base + "/stats"); err == nil {
				resp.Body.Close()
				return cmd, base
			}
			if time.Now().After(deadline) {
				t.Fatal("the daemon never answered")
			}
		}
	}
	post := func(url, body string) string {
		t.Helper()
		resp, err := http.Post(url, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return fmt.Sprintf("%d %s", resp.StatusCode, out)
	}
	page := func(v int) string { return fmt.Sprintf("<p><v>%d</v></p>", v) }

	daemon, base := start()
	if got := post(base+"/subscribe", testSub); !strings.HasPrefix(got, "201 ") {
		t.Fatalf("subscribe: %s", got)
	}
	for v, want := range []string{"0 notifications", "1 notifications"} {
		if got := post(base+"/push?url=http://w.example/a.xml", page(v+1)); !strings.Contains(got, want) {
			t.Fatalf("push v%d: %s, want %s", v+1, got, want)
		}
	}
	if err := daemon.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = daemon.Wait()

	_, base = start()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st xymon.Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.Manager.Subscriptions != 1 || st.Pages != 1 {
		t.Fatalf("after the restart: %d subscriptions, %d pages, %v; want 1 and 1", st.Manager.Subscriptions, st.Pages, err)
	}
	if got := post(base+"/push?url=http://w.example/a.xml", page(2)); !strings.Contains(got, "0 notifications") {
		t.Errorf("re-push of the acknowledged v2 after the restart: %s", got)
	}
	if got := post(base+"/push?url=http://w.example/a.xml", page(3)); !strings.Contains(got, "1 notifications") {
		t.Errorf("push v3 after the restart: %s", got)
	}
	resp, err = http.Get(base + "/reports")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "UpdatedPage") || !strings.Contains(string(body), "1 reports") {
		t.Errorf("reports after the restart: %s", body)
	}
}

// serve runs one request through the daemon's routes.
func serve(srv *server, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.routes().ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// getStats decodes GET /stats.
func getStats(t *testing.T, srv *server) xymon.Stats {
	t.Helper()
	var st xymon.Stats
	if err := json.Unmarshal(serve(srv, "GET", "/stats", "").Body.Bytes(), &st); err != nil {
		t.Fatalf("stats: %v", err)
	}
	return st
}

// pushVersion pushes version v of the page testSub watches.
func pushVersion(t *testing.T, srv *server, v int) string {
	t.Helper()
	rec := serve(srv, "POST", "/push?url=http://w.example/a.xml", fmt.Sprintf("<p><v>%d</v></p>", v))
	if rec.Code != http.StatusOK {
		t.Fatalf("push v%d: %d %s", v, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// TestArchivedReportsRoute: GET /reports?subscription=N renders N's
// archived reports — the archive clause's — and no other's.
func TestArchivedReportsRoute(t *testing.T) {
	srv := testServer(t)
	archived := strings.Replace(testSub, "report when immediate", "report when immediate archive weekly", 1)
	for _, src := range []string{archived, strings.Replace(testSub, "HttpWatch", "Other", 1)} {
		if rec := serve(srv, "POST", "/subscribe", src); rec.Code != http.StatusCreated {
			t.Fatalf("subscribe: %d %s", rec.Code, rec.Body.String())
		}
	}
	pushVersion(t, srv, 1)
	pushVersion(t, srv, 2)
	body := serve(srv, "GET", "/reports?subscription=HttpWatch", "").Body.String()
	if !strings.Contains(body, "1 reports") || !strings.Contains(body, "HttpWatch") || strings.Contains(body, "Other") {
		t.Errorf("HttpWatch's archive: %s", body)
	}
	if body := serve(srv, "GET", "/reports?subscription=Other", "").Body.String(); !strings.Contains(body, "0 reports") {
		t.Errorf("a subscription with no archive clause: %s", body)
	}
	if body := serve(srv, "GET", "/reports", "").Body.String(); !strings.Contains(body, "2 reports") {
		t.Errorf("the latest reports: %s", body)
	}
}

// TestDurableStatsSections: after a Checkpoint, /stats of a -durable
// server carries the Reporter's counters, the lag of a committed
// stream consumer, both logs' counters and the continuous queries'
// evaluations.
func TestDurableStatsSections(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, xymon.Options{DurableDir: dir})
	for _, src := range []string{testSub, "subscription CQ\ncontinuous Q\ntry weekly\nreport when immediate"} {
		if rec := serve(srv, "POST", "/subscribe", src); rec.Code != http.StatusCreated {
			t.Fatalf("subscribe: %d %s", rec.Code, rec.Body.String())
		}
	}
	pushVersion(t, srv, 1)
	pushVersion(t, srv, 2)
	srv.sys.Tick()
	// A consumer, as xysub stream tail runs one, reads and commits
	// everything so far; one more report then lags it by one.
	rd, err := stream.OpenReader(filepath.Join(dir, "reporter"), "tail", stream.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Poll(100); err != nil {
		t.Fatal(err)
	}
	if err := rd.Commit(); err != nil {
		t.Fatal(err)
	}
	rd.Close()
	pushVersion(t, srv, 3)
	if err := srv.sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	st := getStats(t, srv)
	if st.Reporter.Delivered < 2 || st.Reporter.Delivered != st.Stream.Next || st.Reporter.JournalErrors != 0 {
		t.Errorf("Reporter = %+v with %d records published, want every one delivered", st.Reporter, st.Stream.Next)
	}
	if lag, ok := st.Stream.Lags["tail"]; !ok || lag != 1 {
		t.Errorf("Stream.Lags = %v, want tail: 1", st.Stream.Lags)
	}
	if st.Stream.WAL.Rotations == 0 || st.WarehouseLog.Rotations == 0 {
		t.Errorf("the checkpoint rotated no log: Stream.WAL %+v, WarehouseLog %+v", st.Stream.WAL, st.WarehouseLog)
	}
	if st.Evaluations != 1 {
		t.Errorf("Evaluations = %d, want the continuous query's one", st.Evaluations)
	}
}

// TestStatsCountGateStubs: /stats carries the warehouse's gate stubs — a
// page the crawler's gate refused is remembered, and its byte-identical
// refetch counts as a stub hit, not as a commit.
func TestStatsCountGateStubs(t *testing.T) {
	srv := testServer(t)
	watch := "subscription Rare\nmonitoring\nselect <Hit url=URL/>\nwhere product contains \"zyzzyva\"\nreport when immediate"
	if rec := serve(srv, "POST", "/subscribe", watch); rec.Code != http.StatusCreated {
		t.Fatalf("subscribe: %d %s", rec.Code, rec.Body.String())
	}
	page := []byte("<catalog><product>lamp</product></catalog>")
	for range 3 {
		if srv.sys.Crawler.Gate("http://s.example/a.xml", "", "shopping", page) {
			t.Fatal("the gate passed a page nobody wants")
		}
	}
	st := getStats(t, srv)
	if st.Warehouse.Stubs != 1 || st.Warehouse.StubHits != 2 || st.Warehouse.SkippedRawSig != 0 {
		t.Errorf("Warehouse = %+v, want one stub, two stub hits and no tier-1 commit", st.Warehouse)
	}
}
