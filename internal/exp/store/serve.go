package store

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"pracsim/internal/fault"
)

// FrameRoutes lists the frame API a FrameHandler serves, the wire
// format the HTTP client speaks: each mux pattern with a short route
// name a daemon can label its per-endpoint metrics with.
var FrameRoutes = []struct {
	Pattern, Name string
	serve         func(*FrameHandler, http.ResponseWriter, *http.Request)
}{
	{"GET /v1/e/{hash}", "get", (*FrameHandler).handleGet},          // a frame; 404 on miss, gzip when accepted
	{"PUT /v1/e/{hash}", "put", (*FrameHandler).handlePut},          // validate + atomically publish a frame
	{"DELETE /v1/e/{hash}", "delete", (*FrameHandler).handleDelete}, // remove an entry
	{"GET /v1/stat/{hash}", "stat", (*FrameHandler).handleStat},     // entry metadata as JSON
	{"GET /v1/list", "list", (*FrameHandler).handleList},            // all entries, streamed as JSON
}

// FrameStats snapshots a FrameHandler's traffic: GET hits and misses,
// PUTs rejected by frame validation, accepted payload bytes and served
// frame bytes.
type FrameStats struct {
	Hits, Misses, PutRejects, BytesIn, BytesOut int64
}

// FrameHandler serves one disk store over HTTP in the store's own
// self-validating frame format, so checksums are verified on both ends:
// a PUT is decoded and validated — frame integrity, payload checksum,
// embedded key hashing to the addressed path — before it is atomically
// published via the disk backend's temp-file + rename path, and a GET
// serves the stored frame for the client to validate. The handler never
// needs to trust a client, and a client never needs to trust it.
//
// It is a plain http.Handler over the FrameRoutes: authentication,
// request logging and the metrics page are the mounting daemon's.
type FrameHandler struct {
	disk *Disk
	mux  *http.ServeMux

	hits, misses, putRejects, bytesIn, bytesOut atomic.Int64
}

// NewFrameHandler returns a frame server over a disk backend.
func NewFrameHandler(d *Disk) *FrameHandler {
	h := &FrameHandler{disk: d, mux: http.NewServeMux()}
	for _, r := range FrameRoutes {
		serve := r.serve
		h.mux.HandleFunc(r.Pattern, func(w http.ResponseWriter, req *http.Request) { serve(h, w, req) })
	}
	return h
}

// ServeHTTP dispatches to the frame routes.
func (h *FrameHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// Stats snapshots the traffic counters.
func (h *FrameHandler) Stats() FrameStats {
	return FrameStats{
		Hits:       h.hits.Load(),
		Misses:     h.misses.Load(),
		PutRejects: h.putRejects.Load(),
		BytesIn:    h.bytesIn.Load(),
		BytesOut:   h.bytesOut.Load(),
	}
}

// validHash reports whether a path segment is a well-formed content
// address (64 lowercase hex digits) — everything else is rejected before
// it can name a file.
func validHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func pathHash(w http.ResponseWriter, r *http.Request) (string, bool) {
	h := r.PathValue("hash")
	if !validHash(h) {
		http.Error(w, "malformed entry hash", http.StatusBadRequest)
		return "", false
	}
	return h, true
}

func (h *FrameHandler) handleGet(w http.ResponseWriter, r *http.Request) {
	hash, ok := pathHash(w, r)
	if !ok {
		return
	}
	// The server.get failpoint fails the request (err -> 500) or mangles
	// the served frame (trunc, corrupt) — a misbehaving or bit-rotting
	// server for the client's validation to catch.
	act := fault.Fire(fault.ServerGet)
	if act != nil && act.Kind == fault.Err {
		http.Error(w, act.Err("get "+hash).Error(), http.StatusInternalServerError)
		return
	}
	frame, _, err := h.disk.GetFrame(hash)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			h.misses.Add(1)
			http.Error(w, "no such entry", http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if act != nil {
		switch act.Kind {
		case fault.Trunc:
			frame = frame[:len(frame)/2]
		case fault.Corrupt:
			frame = fault.CorruptByte(append([]byte(nil), frame...))
		}
	}
	h.hits.Add(1)
	h.bytesOut.Add(int64(len(frame)))
	w.Header().Set("Content-Type", "application/octet-stream")
	if len(frame) >= GzipMinBytes && strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		w.Header().Set("Content-Encoding", "gzip")
		zw := gzip.NewWriter(w)
		zw.Write(frame)
		zw.Close()
		return
	}
	w.Write(frame)
}

func (h *FrameHandler) handlePut(w http.ResponseWriter, r *http.Request) {
	hash, ok := pathHash(w, r)
	if !ok {
		return
	}
	if a := fault.Fire(fault.ServerPut); a != nil && a.Kind == fault.Err {
		http.Error(w, a.Err("put "+hash).Error(), http.StatusInternalServerError)
		return
	}
	var body io.Reader = http.MaxBytesReader(w, r.Body, MaxEntryBytes)
	if r.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(body)
		if err != nil {
			h.putRejects.Add(1)
			http.Error(w, "bad gzip body: "+err.Error(), http.StatusBadRequest)
			return
		}
		defer zr.Close()
		body = io.LimitReader(zr, MaxEntryBytes)
	}
	frame, err := io.ReadAll(body)
	if err != nil {
		h.putRejects.Add(1)
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	// PutFrame validates — checksum, lengths, key/hash agreement —
	// before publishing; a corrupt or mis-addressed upload never touches
	// the store. Validation failures (ErrBadFrame) are the client's
	// fault (400, counted as rejects); a storage failure on a frame that
	// validated is the server's (500), so a full disk never reads as
	// "corrupt uploads" in the metrics.
	_, n, err := h.disk.PutFrame(hash, frame)
	if err != nil {
		if errors.Is(err, ErrBadFrame) {
			h.putRejects.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h.bytesIn.Add(int64(n))
	w.WriteHeader(http.StatusNoContent)
}

func (h *FrameHandler) handleDelete(w http.ResponseWriter, r *http.Request) {
	hash, ok := pathHash(w, r)
	if !ok {
		return
	}
	if err := h.disk.DeleteFrame(hash); err != nil {
		if errors.Is(err, ErrNotFound) {
			http.Error(w, "no such entry", http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h *FrameHandler) handleStat(w http.ResponseWriter, r *http.Request) {
	hash, ok := pathHash(w, r)
	if !ok {
		return
	}
	frame, mtime, err := h.disk.GetFrame(hash)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			http.Error(w, "no such entry", http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	key, payload, err := DecodeFrameAny(frame)
	if err != nil {
		// A corrupt entry is indistinguishable from an absent one to
		// clients — exactly the degrade-to-miss contract.
		http.Error(w, "no such entry", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(Info{Key: key, Size: int64(len(payload)), ModTime: mtime})
}

// handleList streams the listing as one JSON array, entry by entry, so
// a million-entry store is never materialized server-side. A walk
// failure after the first byte has left cannot become a 500; it
// truncates the array, which the client's decode rejects.
func (h *FrameHandler) handleList(w http.ResponseWriter, r *http.Request) {
	wrote := false
	enc := json.NewEncoder(w)
	err := h.disk.ListEach(func(info Info) error {
		if !wrote {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, "[")
			wrote = true
		} else {
			io.WriteString(w, ",")
		}
		return enc.Encode(info)
	})
	if err != nil && !wrote {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if !wrote {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "[")
	}
	io.WriteString(w, "]\n")
}
