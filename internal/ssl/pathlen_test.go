package ssl

import (
	"io"
	"testing"

	"sslperf/internal/handshake"
	"sslperf/internal/lifecycle"
	"sslperf/internal/pathlen"
	"sslperf/internal/probe"
	"sslperf/internal/suite"
	"sslperf/internal/telemetry"
)

// TestPathlenResumedHandshakeAttribution pins byte attribution on the
// resumed-session path: the encrypted finished exchange must charge
// its RecordCrypto bytes to the resumed-path steps (send_finished,
// get_cipher_spec/get_finished), the bulk transfer must land on the
// bulk row, and the record totals the registry reports beside it must
// equal what the record layer itself counted.
func TestPathlenResumedHandshakeAttribution(t *testing.T) {
	id := identity(t)
	cache := handshake.NewSessionCache(16)

	// First connection: full handshake to seed the session cache.
	scfg := id.ServerConfig(NewPRNG(61))
	scfg.SessionCache = cache
	scfg.Suites = []suite.ID{suite.RSAWithRC4128MD5}
	ccfg := clientCfg(func(c *Config) { c.Suites = []suite.ID{suite.RSAWithRC4128MD5} })
	client, server := connect(t, ccfg, scfg)
	sess, err := client.Session()
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	server.Close()

	// Second connection resumes, with its record folding into a
	// pathlen collector and a registry. Both are read while it lives.
	col, reg := pathlen.NewCollector(), telemetry.NewRegistry()
	scfg2 := id.ServerConfig(NewPRNG(62))
	scfg2.SessionCache = cache
	scfg2.Suites = []suite.ID{suite.RSAWithRC4128MD5}
	scfg2.Observers = []probe.Observer{lifecycle.NewTable(lifecycle.Options{Pathlen: col, Registry: reg})}
	ccfg2 := clientCfg(func(c *Config) {
		c.Suites = []suite.ID{suite.RSAWithRC4128MD5}
		c.Session = sess
	})
	client2, server2 := connect(t, ccfg2, scfg2)
	if cs, _ := server2.ConnectionState(); !cs.Resumed {
		t.Fatal("second handshake did not resume")
	}

	snap := col.Snapshot()
	// The server's finished message is the first encrypted record it
	// writes: its MAC and cipher bytes belong to send_finished.
	sf, ok := snap.Step(probe.StepSendFinished.Name())
	if !ok || sf.CryptoBytes == 0 {
		t.Errorf("send_finished crypto bytes = %+v ok=%v, want > 0", sf, ok)
	}
	// The client's finished message is the first encrypted record the
	// server reads: decrypt + MAC-verify bytes belong to
	// get_cipher_spec/get_finished.
	gf, ok := snap.Step(probe.StepGetFinished.Name())
	if !ok || gf.CryptoBytes == 0 {
		t.Errorf("get_finished crypto bytes = %+v ok=%v, want > 0", gf, ok)
	}
	// A resumed handshake runs gen_key_block but never the RSA
	// decrypt step; no bulk row exists yet.
	if row, ok := snap.Step(probe.StepGetClientKX.Name()); ok && row.CryptoBytes > 0 {
		t.Errorf("resumed path charged bytes to get_client_kx: %+v", row)
	}
	if _, ok := snap.Step(probe.LabelBulk); ok {
		t.Errorf("bulk row present before any application data")
	}
	// The primitives are the suite's: RC4 cipher bytes and MD5 MAC
	// bytes, nothing on the other rows.
	rc4Row, ok := snap.Prim("RC4")
	if !ok || rc4Row.Bytes == 0 {
		t.Errorf("RC4 row = %+v ok=%v, want bytes > 0", rc4Row, ok)
	}
	md5Row, ok := snap.Prim("MD5")
	if !ok || md5Row.Bytes == 0 {
		t.Errorf("MD5 row = %+v ok=%v, want bytes > 0", md5Row, ok)
	}
	if row, ok := snap.Prim("other"); ok {
		t.Errorf("unattributed primitive row after resumed handshake: %+v", row)
	}

	// Bulk transfer: bytes flow both ways, land on the bulk row, and
	// the record's totals reconcile with the record layer's own
	// stats — the accumulation drops nothing.
	msg := make([]byte, 3000)
	done := make(chan error, 1)
	go func() {
		_, err := client2.Write(msg)
		done <- err
	}()
	if _, err := io.ReadFull(server2, make([]byte, len(msg))); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := server2.Write(msg[:1234]); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(client2, make([]byte, 1234)); err != nil {
		t.Fatal(err)
	}

	snap = col.Snapshot()
	bulk, ok := snap.Step(probe.LabelBulk)
	if !ok || bulk.CryptoBytes == 0 {
		t.Fatalf("bulk row = %+v ok=%v, want crypto bytes > 0", bulk, ok)
	}
	stats, counts := server2.Stats(), reg.Counts()
	if counts.BytesOut != uint64(stats.BytesWritten) {
		t.Errorf("bytes_out = %d, record layer wrote %d", counts.BytesOut, stats.BytesWritten)
	}
	if counts.BytesIn != uint64(stats.BytesRead) {
		t.Errorf("bytes_in = %d, record layer read %d", counts.BytesIn, stats.BytesRead)
	}
	if counts.RecordsOut != uint64(stats.RecordsWritten) || counts.RecordsIn != uint64(stats.RecordsRead) {
		t.Errorf("records = %d/%d, record layer = %d/%d",
			counts.RecordsIn, counts.RecordsOut, stats.RecordsRead, stats.RecordsWritten)
	}
	// MAC bytes cover every plaintext payload byte the armed layer
	// pushed: MD5 mac_compute bytes == plaintext written since the
	// write side armed (everything after the CCS, i.e. the finished
	// message plus the bulk records).
	client2.Close()
	server2.Close()
	// Closing folded the tally: the open connection's running totals
	// became the collector's own, counted once.
	if after, ok := col.Snapshot().Step(probe.LabelBulk); !ok || after.CryptoBytes < bulk.CryptoBytes || after.CryptoBytes > bulk.CryptoBytes+64 {
		t.Errorf("bulk row after close = %+v, before %+v: want the same bytes plus at most a close_notify", after, bulk)
	}
}
