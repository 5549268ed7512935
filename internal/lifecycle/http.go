package lifecycle

import (
	"net/http"
	"strconv"

	"sslperf/internal/debughttp"
)

// Register mounts the per-connection surfaces on mux, each a rendering
// of the table's records:
//
//	/debug/conns           the live connection table (?state=handshaking
//	                       filters, ?limit=N caps rows, ?format=text for
//	                       the aligned table)
//	/debug/flightrecorder  open and recently closed connections in full
//	                       (?conn=ID for one, ?last=N to tail; JSON
//	                       records, ?format=text for per-connection
//	                       event lists)
//	/debug/trace           the same records as Chrome trace-event
//	                       JSON — load it in chrome://tracing
//	                       or https://ui.perfetto.dev
func Register(mux *http.ServeMux, t *Table) {
	mux.HandleFunc("/debug/conns", func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		var opts SnapshotOptions
		if st := q.Get("state"); st != "" {
			if _, ok := StateByName(st); !ok {
				http.Error(w, "unknown state "+strconv.Quote(st), http.StatusBadRequest)
				return
			}
			opts.State = st
		}
		if ls := q.Get("limit"); ls != "" {
			n, err := strconv.Atoi(ls)
			if err != nil || n < 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			opts.Limit = n
		}
		snap := t.Snapshot(opts)
		debughttp.Serve(w, req, snap.Text, snap)
	})
	mux.HandleFunc("/debug/flightrecorder", func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		var conn uint64
		if s := q.Get("conn"); s != "" {
			var err error
			if conn, err = strconv.ParseUint(s, 10, 64); err != nil || conn == 0 {
				http.Error(w, "bad conn id", http.StatusBadRequest)
				return
			}
		}
		recs := t.Records(conn)
		if s := q.Get("last"); s != "" {
			last, err := strconv.Atoi(s)
			if err != nil || last < 0 {
				http.Error(w, "bad last count", http.StatusBadRequest)
				return
			}
			recs = recs[max(len(recs)-last, 0):]
		}
		if recs == nil {
			recs = []Record{}
		}
		debughttp.Serve(w, req, func() string { return FlightText(recs) }, recs)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, req *http.Request) {
		b, err := ChromeTrace(t.Records(0))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		debughttp.WriteJSON(w, b)
	})
}
