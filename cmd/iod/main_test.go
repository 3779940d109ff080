package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerBoundsHeaderRead pins that the listener cannot be held
// open by a client that never finishes sending its request headers.
func TestHTTPServerBoundsHeaderRead(t *testing.T) {
	h := http.NewServeMux()
	hs := newHTTPServer("localhost:0", h)
	if hs.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want > 0", hs.ReadHeaderTimeout)
	}
	if hs.Addr != "localhost:0" || hs.Handler != h {
		t.Fatalf("server not wired to addr/handler: %q %v", hs.Addr, hs.Handler)
	}
}
