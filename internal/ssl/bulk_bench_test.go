package ssl

import (
	"io"
	"testing"

	"sslperf/internal/lifecycle"
	"sslperf/internal/pathlen"
	"sslperf/internal/probe"
	"sslperf/internal/record"
	"sslperf/internal/suite"
)

// BenchmarkBulkPath measures the server-side bulk transfer path per
// suite — the workload behind the live /debug/pathlength table. A
// pathlen collector reads the server connection's tally; after the
// timed transfer its sum yields the cipher and MAC cycles/byte (and, via the
// abstract-instruction CPI, the measured instructions/byte) in the
// ordering the paper's Tables 11/12 report: RC4 cheaper per byte than
// AES, MD5 cheaper than SHA-1 (pathlen.TestModelShape pins that
// ordering on the counting kernels).
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
	col := pathlen.NewCollector()
	id := identity(b)
	scfg := id.ServerConfig(NewPRNG(77))
	scfg.Suites = []suite.ID{s.ID}
	tab := lifecycle.NewTable(lifecycle.Options{Pathlen: col})
	scfg.Observers = []probe.Observer{tab}
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
	// Write off the handshake's contribution so the tally is pure bulk.
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

	if ciph.Bytes == 0 {
		b.Fatal("collector saw no outbound bytes")
	}
}
