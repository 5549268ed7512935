package ssl

import (
	"testing"

	"sslperf/internal/lifecycle"
	"sslperf/internal/probe"
	"sslperf/internal/telemetry"
)

// benchConfigs returns client/server configs, instrumented or not.
func benchConfigs(b testing.TB, reg *telemetry.Registry) (*Config, *Config) {
	b.Helper()
	id := identity(b)
	scfg := id.ServerConfig(NewPRNG(31))
	ccfg := &Config{Rand: NewPRNG(32), InsecureSkipVerify: true}
	if reg != nil {
		scfg.Observers = []probe.Observer{lifecycle.NewTable(lifecycle.Options{Registry: reg})}
		ccfg.Observers = scfg.Observers
	}
	return ccfg, scfg
}

// benchHandshake measures full handshakes per op over the in-memory
// pipe — the disabled-path (reg == nil) run is the baseline the
// telemetry-on figure compares against.
func benchHandshake(b *testing.B, reg *telemetry.Registry) {
	ccfg, scfg := benchConfigs(b, reg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct, st := Pipe()
		client, server := ClientConn(ct, ccfg), ServerConn(st, scfg)
		errs := make(chan error, 1)
		go func() { errs <- client.Handshake() }()
		if err := server.Handshake(); err != nil {
			b.Fatal(err)
		}
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
		ct.Close()
		st.Close()
	}
}

func BenchmarkHandshakeTelemetryOff(b *testing.B) { benchHandshake(b, nil) }
func BenchmarkHandshakeTelemetryOn(b *testing.B) {
	benchHandshake(b, telemetry.NewRegistry())
}

// benchRecordThroughput measures bulk record transfer through an
// established connection.
func benchRecordThroughput(b *testing.B, reg *telemetry.Registry) {
	ccfg, scfg := benchConfigs(b, reg)
	ct, st := Pipe()
	client, server := ClientConn(ct, ccfg), ServerConn(st, scfg)
	errs := make(chan error, 1)
	go func() { errs <- client.Handshake() }()
	if err := server.Handshake(); err != nil {
		b.Fatal(err)
	}
	if err := <-errs; err != nil {
		b.Fatal(err)
	}
	const chunk = 4096
	payload := make([]byte, chunk)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, chunk)
		var got int
		for got < b.N*chunk {
			n, err := server.Read(buf)
			if err != nil {
				b.Error(err)
				return
			}
			got += n
		}
	}()
	b.SetBytes(chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	b.StopTimer()
	client.Close()
	server.Close()
}

func BenchmarkRecordThroughputTelemetryOff(b *testing.B) { benchRecordThroughput(b, nil) }
func BenchmarkRecordThroughputTelemetryOn(b *testing.B) {
	benchRecordThroughput(b, telemetry.NewRegistry())
}
