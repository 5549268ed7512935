package ssl

import (
	"io"
	"testing"

	"sslperf/internal/pathlen"
	"sslperf/internal/probe"
	"sslperf/internal/record"
	"sslperf/internal/suite"
)

// BenchmarkBulkPath measures the server-side bulk transfer path per
// suite — the workload behind the live /debug/pathlength table. A
// pathlen collector rides the server's spine; after the timed transfer
// its fold yields the cipher and MAC cycles/byte (and, via the
// abstract-instruction CPI, the measured instructions/byte) in the
// ordering the paper's Tables 11/12 report: RC4 cheaper per byte than
// AES, MD5 cheaper than SHA-1 (pathlen.TestModelShape pins that
// ordering on the counting kernels).
//
// Each result also reports the syscall story the flight work is
// about: writes/record (transport writes per sealed record — 2 on the
// legacy header+body path, 1 on the contiguous seal, a fraction on
// the vectored path) and records/s. The "-vec" variants push 1 MiB
// application writes through the flight pipeline — fragmented
// zero-copy, MACs pipelined, one vectored flush per 64-record window
// — to compare against the "-seq1m" record-at-a-time results;
// TestWriteCallsPinned and the record flight tests pin the write
// counts, bench/'s bulk_download the throughput.
func BenchmarkBulkPath(b *testing.B) {
	for _, name := range []string{
		"RC4-MD5", "RC4-SHA", "DES-CBC-SHA", "DES-CBC3-SHA",
		"AES128-SHA", "AES256-SHA", "NULL-MD5",
	} {
		b.Run(name, func(b *testing.B) { benchBulkPath(b, name, bulkRecord) })
	}
	for _, name := range []string{"RC4-MD5", "AES128-SHA"} {
		b.Run(name+"-seq1m", func(b *testing.B) { benchBulkPath(b, name, bulkSeq) })
		b.Run(name+"-vec", func(b *testing.B) { benchBulkPath(b, name, bulkVec) })
	}
}

// Bulk benchmark modes: one 16 KiB record per write (the historical
// shape), 1 MiB writes through the sequential record-at-a-time path
// (flight disabled — the vectored path's baseline), and 1 MiB writes
// through the flight pipeline.
type bulkMode int

const (
	bulkRecord bulkMode = iota
	bulkSeq
	bulkVec
)

const (
	bulkChunk  = 16384                   // one max-size record per write
	bulkFlight = 64 * record.MaxFragment // one full flight window per write
)

func benchBulkPath(b *testing.B, suiteName string, mode bulkMode) {
	s, err := suite.ByName(suiteName)
	if err != nil {
		b.Fatal(err)
	}
	col := pathlen.NewCollector()
	id := identity(b)
	scfg := id.ServerConfig(NewPRNG(77))
	scfg.Suites = []suite.ID{s.ID}
	scfg.Observers = []probe.Observer{col}
	if mode == bulkSeq {
		scfg.BulkPipelineWidth = -1
	}
	ccfg := clientCfg(func(c *Config) { c.Suites = []suite.ID{s.ID} })
	client, server := connect(b, ccfg, scfg)
	defer client.Close()
	defer server.Close()

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		io.Copy(io.Discard, client)
	}()

	chunk := bulkChunk
	if mode != bulkRecord {
		chunk = bulkFlight
	}
	payload := make([]byte, chunk)
	for i := range payload {
		payload[i] = byte(i)
	}
	// Drop the handshake's contribution so the fold is pure bulk.
	col.Reset()
	before := server.Stats()
	b.SetBytes(int64(chunk))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := server.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	snap := col.Snapshot()
	ciph, ok := snap.Prim(s.CipherAlgo)
	if !ok {
		b.Fatalf("no %s row in pathlen snapshot", s.CipherAlgo)
	}
	mac, ok := snap.Prim(s.MAC.String())
	if !ok {
		b.Fatalf("no %s row in pathlen snapshot", s.MAC.String())
	}
	b.ReportMetric(ciph.CyclesPerByte, "cipher-cyc/B")
	b.ReportMetric(mac.CyclesPerByte, "mac-cyc/B")
	if ciph.InstrPerByte > 0 {
		b.ReportMetric(ciph.InstrPerByte, "cipher-instr/B")
	}
	if mac.InstrPerByte > 0 {
		b.ReportMetric(mac.InstrPerByte, "mac-instr/B")
	}
	after := server.Stats()
	records := after.RecordsWritten - before.RecordsWritten
	writes := after.WriteCalls - before.WriteCalls
	if records > 0 {
		b.ReportMetric(float64(writes)/float64(records), "writes/record")
	}
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)*float64(chunk)/1e6/elapsed, "MB/s")
		b.ReportMetric(float64(records)/elapsed, "records/s")
	}

	// Close the server first: its close_notify wakes the drain
	// goroutine out of client.Read (which holds the client Conn's
	// mutex while parked), so client.Close can then take the lock.
	server.Close()
	<-drained
	client.Close()

	if snap.BytesOut == 0 {
		b.Fatal("collector saw no outbound bytes")
	}
}
