package fuseki

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// deadURL returns a loopback URL with nothing listening on it: the listener
// is opened to reserve a port and closed again, so dialing it is refused.
func deadURL(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	ln.Close()
	return url
}

func TestClientConnectionRefusedIsOpError(t *testing.T) {
	c := NewClient(deadURL(t))
	checks := []struct {
		op  string
		err error
	}{
		{"select", func() error { _, err := c.Select(typeQuery); return err }()},
		{"version", func() error { _, err := c.Version(); return err }()},
		{"load", c.Load("")},
	}
	for _, ck := range checks {
		var oe *OpError
		if !errors.As(ck.err, &oe) {
			t.Errorf("%s against a dead endpoint: err = %v (%T), want *OpError", ck.op, ck.err, ck.err)
			continue
		}
		if oe.Err == nil {
			t.Errorf("%s OpError carries no cause", ck.op)
		}
	}
	if v, ok := c.KBVersion(); ok {
		t.Errorf("KBVersion against a dead endpoint = (%d, true), want ok=false", v)
	}
}

func TestClientBodyTruncationMidStream(t *testing.T) {
	// The handler advertises a long body, writes half a JSON results payload,
	// and cuts the connection — the client's read fails mid-stream.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/sparql-results+json")
		w.Header().Set("Content-Length", "4096")
		fmt.Fprint(w, `{"head":{"vars":["x"]},"results":{"bindings":[{"x":`)
		w.(http.Flusher).Flush()
		hj, _ := w.(http.Hijacker)
		conn, _, _ := hj.Hijack()
		conn.Close()
	}))
	defer srv.Close()
	_, err := NewClient(srv.URL).Select(typeQuery)
	var oe *OpError
	if !errors.As(err, &oe) {
		t.Fatalf("truncated select: err = %v (%T), want *OpError", err, err)
	}
}

func TestClientMalformedPayloadIsDecodeError(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"not-json", "this is not json"},
		{"wrong-shape", `{"unrelated": true}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				fmt.Fprint(w, tc.body)
			}))
			defer srv.Close()
			c := NewClient(srv.URL)
			_, err := c.Version()
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("version over %q: err = %v (%T), want *DecodeError", tc.body, err, err)
			}
			if tc.name == "not-json" {
				if _, err := c.Select(typeQuery); !errors.As(err, &de) {
					t.Fatalf("select over %q: err = %v (%T), want *DecodeError", tc.body, err, err)
				}
			}
		})
	}
}

func TestClientStatusErrorRetryability(t *testing.T) {
	for _, tc := range []struct {
		code      int
		temporary bool
	}{
		{http.StatusBadRequest, false},
		{http.StatusNotFound, false},
		{http.StatusTooManyRequests, true},
		{http.StatusInternalServerError, true},
		{http.StatusServiceUnavailable, true},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "nope", tc.code)
		}))
		_, err := NewClient(srv.URL).Select(typeQuery)
		srv.Close()
		var se *StatusError
		if !errors.As(err, &se) {
			t.Fatalf("status %d: err = %v (%T), want *StatusError", tc.code, err, err)
		}
		if se.Code != tc.code {
			t.Errorf("status %d: StatusError.Code = %d", tc.code, se.Code)
		}
		if se.Temporary() != tc.temporary {
			t.Errorf("status %d: Temporary() = %v, want %v", tc.code, se.Temporary(), tc.temporary)
		}
	}
}

func TestClientTracksAdvertisedEpoch(t *testing.T) {
	var epoch uint64 = 41
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set(EpochHeader, strconv.FormatUint(epoch, 10))
		fmt.Fprint(w, `{"head":{"vars":[]},"results":{"bindings":[]}}`)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	if _, ok := c.AdvertisedEpoch(); ok {
		t.Fatal("epoch known before any response")
	}
	if _, err := c.Select(typeQuery); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.AdvertisedEpoch(); !ok || got != 41 {
		t.Fatalf("AdvertisedEpoch = (%d, %v), want (41, true)", got, ok)
	}
	epoch = 42
	if _, err := c.Select(typeQuery); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.AdvertisedEpoch(); got != 42 {
		t.Fatalf("AdvertisedEpoch after bump = %d, want 42", got)
	}
}
