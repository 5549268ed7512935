package ssl

import (
	"io"
	"testing"

	"sslperf/internal/lifecycle"
	"sslperf/internal/record"
	"sslperf/internal/suite"
	"sslperf/internal/telemetry"
)

// BenchmarkBulkPath measures the server-side bulk transfer path per
// suite — the workload behind the live /debug/pathlength table. A
// registry reads the server connection's record crypto; after the
// timed transfer it yields the cipher and MAC cycles/byte, or the one
// stitched AES+SHA-1 figure where the seal runs in one pass, in the
// ordering the paper's Table 11 reports for the table and scalar
// kernels: RC4 cheaper per byte than AES, MD5 cheaper than SHA-1
// (pathlen.TestModelShape pins that ordering on the counting kernels).
//
// Each result also reports writes/record (transport writes per sealed
// record: 1 for record-sized writes, 1/64 for the "-1m" variants'
// 1 MiB writes, whose windows each leave in one write) and records/s;
// TestWriteCallsPinned and the record tests pin the write counts,
// bench/'s bulk_download the throughput.
func BenchmarkBulkPath(b *testing.B) {
	for _, name := range []string{
		"RC4-MD5", "RC4-SHA", "DES-CBC-SHA", "DES-CBC3-SHA",
		"AES128-SHA", "AES256-SHA", "NULL-MD5",
	} {
		b.Run(name, func(b *testing.B) { benchBulkPath(b, name, record.MaxFragment) })
	}
	for _, name := range []string{"RC4-MD5", "AES128-SHA"} {
		b.Run(name+"-1m", func(b *testing.B) { benchBulkPath(b, name, 1<<20) })
	}
}

// benchBulkPath times server writes of chunk bytes each.
func benchBulkPath(b *testing.B, suiteName string, chunk int) {
	s, err := suite.ByName(suiteName)
	if err != nil {
		b.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	id := identity(b)
	scfg := id.ServerConfig(NewPRNG(77))
	scfg.Suites = []suite.ID{s.ID}
	tab := lifecycle.NewTable(lifecycle.Options{Registry: reg})
	scfg.Observer = tab
	ccfg := clientCfg(func(c *Config) { c.Suites = []suite.ID{s.ID} })
	client, server := connect(b, ccfg, scfg)
	defer client.Close()
	defer server.Close()

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		io.Copy(io.Discard, client)
	}()

	payload := make([]byte, chunk)
	for i := range payload {
		payload[i] = byte(i)
	}
	// Write off the handshake's contribution so the record crypto is
	// pure bulk.
	tab.Reset()
	before := server.Stats()
	b.SetBytes(int64(chunk))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := server.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	snap := reg.Pathlength()
	ciph, cok := snap.Prim(s.CipherAlgo)
	mac, mok := snap.Prim(s.MAC.String())
	stitched, sok := snap.Prim(record.PrimAESSHA1)
	if !sok && !(cok && mok) {
		b.Fatalf("pathlength has neither %s and %s rows nor a stitched one: %+v", s.CipherAlgo, s.MAC, snap.Prims)
	}
	if cok {
		b.ReportMetric(ciph.CyclesPerByte, "cipher-cyc/B")
	}
	if mok {
		b.ReportMetric(mac.CyclesPerByte, "mac-cyc/B")
	}
	if sok {
		b.ReportMetric(stitched.CyclesPerByte, "stitched-cyc/B")
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

	if snap.Bulk == nil || snap.Bulk.Bytes == 0 {
		b.Fatal("registry saw no outbound bytes")
	}
}
