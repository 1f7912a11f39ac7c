package main

import (
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestShutdownClosesUnusedConns: a connection that never sent a request
// does not hold the drain. http.Server.Shutdown alone waits five seconds
// for it.
func TestShutdownClosesUnusedConns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok") })
	go func() { done <- serveUntil(ctx, ln, h, 30*time.Second, log.New(io.Discard, "", 0)) }()

	unused, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer unused.Close()
	// The server accepts in order, so once a later connection has been
	// served, the unused one is accepted and tracked. The client keeps
	// that later one as an idle keep-alive connection.
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	resp, err := client.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	t0 := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the drain did not finish within 10 s")
	}
	if took := time.Since(t0); took > 2*time.Second {
		t.Errorf("the drain took %v with an unused connection open, want well under the 5 s Shutdown waits for one", took)
	}
	unused.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := unused.Read(make([]byte, 1)); err == nil {
		t.Errorf("the unused connection is still open after the drain (read %d bytes)", n)
	}
}
