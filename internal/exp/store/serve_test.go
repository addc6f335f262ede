package store_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pracsim/internal/exp/store"
)

// newFrameServer serves a fresh disk store's frame API on loopback.
func newFrameServer(t *testing.T) (*httptest.Server, *store.FrameHandler, *store.Disk) {
	t.Helper()
	d := disk(t)
	fh := store.NewFrameHandler(d)
	ts := httptest.NewServer(fh)
	t.Cleanup(ts.Close)
	return ts, fh, d
}

// TestRoundTrip is the wire contract: a Put through one client is a
// validated Get through another, small and large (gzip-compressed)
// payloads alike, and the served directory is an ordinary disk store.
func TestRoundTrip(t *testing.T) {
	ts, fh, d := newFrameServer(t)
	a, b := httpClient(t, ts.URL), httpClient(t, ts.URL)

	small := []byte("small payload")
	large := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16 KB: crosses both gzip thresholds
	if err := a.Put("pracsim/run/v3/small", small); err != nil {
		t.Fatal(err)
	}
	if err := a.Put("pracsim/run/v3/large", large); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string][]byte{"pracsim/run/v3/small": small, "pracsim/run/v3/large": large} {
		got, err := b.Get(key)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("Get(%s) = %d bytes, %v; want %d bytes", key, len(got), err, len(want))
		}
		// The server published via the ordinary disk path: a local open
		// of the same directory sees the entry.
		if got, err := d.Get(key); err != nil || !bytes.Equal(got, want) {
			t.Errorf("disk.Get(%s) = %d bytes, %v", key, len(got), err)
		}
	}
	if _, err := b.Get("pracsim/run/v3/absent"); err != store.ErrNotFound {
		t.Errorf("Get(absent) = %v, want ErrNotFound", err)
	}
	rs := b.RemoteStats()
	if rs.Hits != 2 || rs.Misses != 1 || rs.Errors != 0 {
		t.Errorf("client stats = %+v", rs)
	}
	// The handler counts the same traffic from its side: payload bytes
	// in, frame bytes out.
	fs := fh.Stats()
	if fs.Hits != 2 || fs.Misses != 1 || fs.PutRejects != 0 || fs.BytesIn != int64(len(small)+len(large)) || fs.BytesOut <= fs.BytesIn {
		t.Errorf("handler stats = %+v", fs)
	}
}

// TestStatListDelete covers the maintenance surface over the wire.
func TestStatListDelete(t *testing.T) {
	ts, _, _ := newFrameServer(t)
	h := httpClient(t, ts.URL)
	if err := h.Put("pracsim/run/v3/x", []byte("xxxx")); err != nil {
		t.Fatal(err)
	}
	if err := h.Put("pracsim/run/v2/y", []byte("yy")); err != nil {
		t.Fatal(err)
	}

	info, err := h.Stat("pracsim/run/v3/x")
	if err != nil || info.Key != "pracsim/run/v3/x" || info.Size != 4 {
		t.Errorf("Stat = %+v, %v", info, err)
	}
	if _, err := h.Stat("absent"); err != store.ErrNotFound {
		t.Errorf("Stat(absent) = %v, want ErrNotFound", err)
	}

	infos, err := h.List()
	if err != nil || len(infos) != 2 {
		t.Fatalf("List = %v, %v", infos, err)
	}
	sizes := map[string]int64{}
	for _, i := range infos {
		sizes[i.Key] = i.Size
	}
	if sizes["pracsim/run/v3/x"] != 4 || sizes["pracsim/run/v2/y"] != 2 {
		t.Errorf("List sizes = %v", sizes)
	}

	if err := h.Delete("pracsim/run/v2/y"); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete("pracsim/run/v2/y"); err != store.ErrNotFound {
		t.Errorf("second Delete = %v, want ErrNotFound", err)
	}
	if _, err := h.Get("pracsim/run/v2/y"); err != store.ErrNotFound {
		t.Errorf("deleted entry still served: %v", err)
	}
}

// TestPutValidation: the server rejects—and never publishes—uploads
// that fail frame validation: garbage bodies, checksum flips, and
// well-formed frames addressed at the wrong hash.
func TestPutValidation(t *testing.T) {
	ts, fh, d := newFrameServer(t)
	key := "pracsim/run/v3/k"
	frame := store.EncodeFrame(key, []byte("a payload worth protecting"))
	flipped := append([]byte{}, frame...)
	flipped[len(flipped)-5] ^= 0xff

	put := func(hash string, body []byte) *http.Response {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/e/"+hash, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp
	}

	if resp := put(store.Hash(key), []byte("not a frame")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage PUT = %s, want 400", resp.Status)
	}
	if resp := put(store.Hash(key), flipped); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("checksum-flipped PUT = %s, want 400", resp.Status)
	}
	if resp := put(store.Hash("some-other-key"), frame); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mis-addressed PUT = %s, want 400", resp.Status)
	}
	if resp := put(strings.Repeat("z", 64), frame); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed-hash PUT = %s, want 400", resp.Status)
	}
	if infos, err := d.List(); err != nil || len(infos) != 0 {
		t.Errorf("rejected uploads landed in the store: %v, %v", infos, err)
	}
	// A malformed hash is refused before the body is read, so only the
	// three frame-validation failures count as rejects.
	if n := fh.Stats().PutRejects; n != 3 {
		t.Errorf("PutRejects = %d, want 3", n)
	}

	if resp := put(store.Hash(key), frame); resp.StatusCode != http.StatusNoContent {
		t.Errorf("valid PUT = %s, want 204", resp.Status)
	}
	if got, err := d.Get(key); err != nil || string(got) != "a payload worth protecting" {
		t.Errorf("valid PUT not stored: %q, %v", got, err)
	}
}

// TestConcurrentClients hammers one server with racing writers and
// readers on shared and distinct keys — the fleet's actual access
// pattern; every read must observe a complete payload for its key.
func TestConcurrentClients(t *testing.T) {
	ts, _, _ := newFrameServer(t)
	const clients = 8
	done := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			h, err := store.OpenHTTP(ts.URL)
			if err != nil {
				done <- err
				return
			}
			own := fmt.Sprintf("pracsim/run/v3/own-%d", c)
			for i := 0; i < 10; i++ {
				if err := h.Put("pracsim/run/v3/shared", []byte("shared payload")); err != nil {
					done <- err
					return
				}
				if err := h.Put(own, []byte(own)); err != nil {
					done <- err
					return
				}
				if got, err := h.Get("pracsim/run/v3/shared"); err != nil || string(got) != "shared payload" {
					done <- fmt.Errorf("shared read = %q, %v", got, err)
					return
				}
				if got, err := h.Get(own); err != nil || string(got) != own {
					done <- fmt.Errorf("own read = %q, %v", got, err)
					return
				}
			}
			done <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}
