// Command cryptospeed measures raw primitive throughput, in the
// spirit of `openssl speed`: each primitive over a sweep of buffer
// sizes, plus RSA sign/verify-style op rates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sslperf/internal/aes"
	"sslperf/internal/aessha1"
	"sslperf/internal/des"
	"sslperf/internal/dh"
	"sslperf/internal/hmacx"
	"sslperf/internal/md5x"
	"sslperf/internal/pathlen"
	"sslperf/internal/perf"
	"sslperf/internal/rc4"
	"sslperf/internal/record"
	"sslperf/internal/rsa"
	"sslperf/internal/sha1x"
	"sslperf/internal/ssl"
	"sslperf/internal/suite"
	"sslperf/internal/workload"
)

var sizes = []int{16, 64, 256, 1024, 8192}

// speed measures MB/s for fn processing size-byte units for at least
// dur of wall time.
func speed(size int, dur time.Duration, fn func(data []byte)) float64 {
	data := workload.Payload(size)
	// Warm up.
	fn(data)
	var n int
	start := time.Now()
	for time.Since(start) < dur {
		fn(data)
		n++
	}
	elapsed := time.Since(start).Seconds()
	return float64(n) * float64(size) / elapsed / 1e6
}

func main() {
	var (
		dur     = flag.Duration("duration", 200*time.Millisecond, "time per measurement point")
		rsaBits = flag.Int("rsabits", 1024, "RSA key size")
		jsonOut = flag.Bool("json", false, "emit machine-readable JSON")
	)
	flag.Parse()

	type prim struct {
		name   string
		kernel string // which of a primitive's kernels this CPU runs, where it has two
		fn     func(data []byte)
	}
	aesKernel, sha1Kernel := "tables", "scalar"
	if aes.HardwareRounds() {
		aesKernel = "AESENC"
	}
	if sha1x.HardwareRounds() {
		sha1Kernel = "SHA1RNDS4"
	}
	aesC, _ := aes.New(make([]byte, 16))
	aes256, _ := aes.New(make([]byte, 32))
	desC, _ := des.New(make([]byte, 8))
	tdes, _ := des.NewTriple(make([]byte, 24))
	rc4C, _ := rc4.New(make([]byte, 16))
	buf := make([]byte, 16)
	dbuf := make([]byte, 8)

	prims := []prim{
		{"aes-128", aesKernel, func(d []byte) {
			for i := 0; i+16 <= len(d); i += 16 {
				aesC.Encrypt(buf, d[i:i+16])
			}
		}},
		{"aes-256", aesKernel, func(d []byte) {
			for i := 0; i+16 <= len(d); i += 16 {
				aes256.Encrypt(buf, d[i:i+16])
			}
		}},
		{"des", "", func(d []byte) {
			for i := 0; i+8 <= len(d); i += 8 {
				desC.Encrypt(dbuf, d[i:i+8])
			}
		}},
		{"3des", "", func(d []byte) {
			for i := 0; i+8 <= len(d); i += 8 {
				tdes.Encrypt(dbuf, d[i:i+8])
			}
		}},
		{"rc4", "", func(d []byte) { rc4C.XORKeyStream(d, d) }},
		{"md5", "", func(d []byte) { md5x.Sum16(d) }},
		{"sha1", sha1Kernel, func(d []byte) { sha1x.Sum20(d) }},
	}
	hmacSHA1 := hmacx.NewSHA1(workload.Payload(20))
	hmacMD5 := hmacx.NewMD5(workload.Payload(16))
	prims = append(prims,
		prim{"hmac-md5", "", func(d []byte) {
			hmacMD5.Reset()
			hmacMD5.Write(d)
			hmacMD5.Sum(nil)
		}},
		prim{"hmac-sha1", sha1Kernel, func(d []byte) {
			hmacSHA1.Reset()
			hmacSHA1.Write(d)
			hmacSHA1.Sum(nil)
		}},
	)

	if *jsonOut {
		// The bulk sweep in the units /debug/pathlength serves live:
		// MB/s, ops/s, and cycles/byte at the model clock, with the
		// abstract-instruction model columns where one exists.
		var report bulkReport
		report.ModelGHz = perf.ModelGHz()
		for _, p := range prims {
			pr := bulkPrim{Name: p.name, Kernel: p.kernel}
			if m, ok := pathlen.ModelFor(modelName(p.name)); ok {
				pr.ModelCPI = m.CPI
				pr.ModelInstrPerByte = m.InstrPerByte
			}
			for _, size := range sizes {
				mbps := speed(size, *dur, p.fn)
				pt := bulkPoint{
					Size:          size,
					MBps:          mbps,
					OpsSec:        mbps * 1e6 / float64(size),
					CyclesPerByte: perf.ModelGHz() * 1e3 / mbps,
				}
				if pr.ModelCPI > 0 {
					pt.InstrPerByte = pt.CyclesPerByte / pr.ModelCPI
				}
				pr.Points = append(pr.Points, pt)
			}
			report.Prims = append(report.Prims, pr)
		}
		points, err := recordSweep(*dur)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		report.RecordPath = points
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	t := perf.NewTable("symmetric & hash throughput (MB/s)",
		append([]string{"primitive"}, sizeHeaders()...)...)
	for _, p := range prims {
		row := []string{p.name}
		if p.kernel != "" {
			row[0] += " (" + p.kernel + ")"
		}
		for _, size := range sizes {
			row = append(row, fmt.Sprintf("%.1f", speed(size, *dur, p.fn)))
		}
		t.AddRow(row...)
	}
	fmt.Println(t)

	// Sealed record path: write batching by write size.
	points, err := recordSweep(*dur)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rpt := perf.NewTable("sealed record path", "suite", "write bytes", "MB/s", "writes/record")
	for _, p := range points {
		name := p.Suite
		if p.Kernel != "" {
			name += " (" + p.Kernel + ")"
		}
		rpt.AddRow(name, fmt.Sprintf("%d", p.WriteBytes),
			fmt.Sprintf("%.1f", p.MBps),
			fmt.Sprintf("%.4f", p.WritesPerRecord))
	}
	fmt.Println(rpt)

	// RSA op rates.
	fmt.Printf("generating %d-bit RSA key...\n", *rsaBits)
	key, err := rsa.GenerateKey(ssl.NewPRNG(1), *rsaBits)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rnd := ssl.NewPRNG(2)
	msg := make([]byte, 48)
	ct, err := key.EncryptPKCS1(rnd, msg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	key.DecryptPKCS1(rnd, ct) // warm blinding
	opRate := func(fn func()) float64 {
		var n int
		start := time.Now()
		for time.Since(start) < *dur {
			fn()
			n++
		}
		return float64(n) / time.Since(start).Seconds()
	}
	priv := opRate(func() { key.DecryptPKCS1(rnd, ct) })
	pub := opRate(func() { key.EncryptPKCS1(rnd, msg) })
	rt := perf.NewTable("asymmetric op rates", "operation", "ops/s", "equivalent MB/s")
	rt.AddRow("rsa private (decrypt)", fmt.Sprintf("%.1f", priv),
		fmt.Sprintf("%.3f", priv*float64(key.Size())/1e6))
	rt.AddRow("rsa public (encrypt)", fmt.Sprintf("%.1f", pub),
		fmt.Sprintf("%.3f", pub*float64(key.Size())/1e6))

	// Ephemeral DH (the DHE suites' per-handshake cost).
	params := dh.Group1024()
	ephemeral, err := dh.GenerateKey(ssl.NewPRNG(3), params)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	peer, err := dh.GenerateKey(ssl.NewPRNG(4), params)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rndDH := ssl.NewPRNG(5)
	genRate := opRate(func() { dh.GenerateKey(rndDH, params) })
	ssRate := opRate(func() { ephemeral.SharedSecret(peer.Y) })
	rt.AddRow("dh-1024 generate", fmt.Sprintf("%.1f", genRate), "")
	rt.AddRow("dh-1024 agree", fmt.Sprintf("%.1f", ssRate), "")
	fmt.Println(rt)
}

// bulkPoint is one (primitive, buffer size) measurement in the same
// units the live /debug/pathlength fold reports.
type bulkPoint struct {
	Size          int     `json:"size"`
	MBps          float64 `json:"mbps"`
	OpsSec        float64 `json:"ops_per_sec"`
	CyclesPerByte float64 `json:"cycles_per_byte"`
	InstrPerByte  float64 `json:"instr_per_byte,omitempty"`
}

type bulkPrim struct {
	Name              string      `json:"name"`
	Kernel            string      `json:"kernel,omitempty"`
	ModelCPI          float64     `json:"model_cpi,omitempty"`
	ModelInstrPerByte float64     `json:"model_instr_per_byte,omitempty"`
	Points            []bulkPoint `json:"points"`
}

type bulkReport struct {
	ModelGHz   float64       `json:"model_ghz"`
	Prims      []bulkPrim    `json:"prims"`
	RecordPath []recordPoint `json:"record_path"`
}

// recordPoint is one (suite, write size) measurement of the sealed
// record path: writes/record is transport writes per sealed record —
// 1 for record-sized writes, ~1/64 once a write fills its windows.
// Kernel names the form an AES128-SHA record is sealed in on this CPU:
// the stitched AES-CBC + SHA-1 loop, or two passes.
type recordPoint struct {
	Suite           string  `json:"suite"`
	Kernel          string  `json:"kernel,omitempty"`
	WriteBytes      int     `json:"write_bytes"`
	MBps            float64 `json:"mbps"`
	WritesPerRecord float64 `json:"writes_per_record"`
}

// recordSweep drives one-record and 1 MiB application writes through
// an armed record layer, for the cheap stream suite and the block
// suite the bulk_download workload runs.
func recordSweep(dur time.Duration) ([]recordPoint, error) {
	var out []recordPoint
	for _, name := range []string{"RC4-MD5", "AES128-SHA"} {
		s, err := suite.ByName(name)
		if err != nil {
			return nil, err
		}
		kernel := ""
		if name == "AES128-SHA" {
			kernel = "two passes"
			if aessha1.HardwareRounds() {
				kernel = "AESENC+SHA1RNDS4"
			}
		}
		for _, size := range []int{record.MaxFragment, 1 << 20} {
			payload := workload.Payload(size)
			// /dev/null as the transport, so the sweep measures sealing
			// and write batching rather than a transport.
			l := record.NewLayer(struct {
				io.Reader
				io.Writer
			}{Writer: io.Discard})
			wc, err := s.NewCipher(workload.Payload(s.KeyLen), workload.Payload(s.IVLen), true)
			if err != nil {
				return nil, err
			}
			wm, err := s.NewMAC(workload.Payload(s.MACLen()))
			if err != nil {
				return nil, err
			}
			l.SetWriteState(wc, wm)
			var n int
			start := time.Now()
			for time.Since(start) < dur {
				if err := l.WriteRecord(record.TypeApplicationData, payload); err != nil {
					return nil, err
				}
				n++
			}
			elapsed := time.Since(start).Seconds()
			out = append(out, recordPoint{
				Suite:           name,
				Kernel:          kernel,
				WriteBytes:      size,
				MBps:            float64(n) * float64(size) / elapsed / 1e6,
				WritesPerRecord: float64(l.Stats.WriteCalls) / float64(l.Stats.RecordsWritten),
			})
		}
	}
	return out, nil
}

// modelName maps cryptospeed's primitive names onto the pathlen
// model's rows (aes-256 and the HMACs have no model row).
func modelName(name string) string {
	switch name {
	case "aes-128":
		return "AES"
	case "des":
		return "DES"
	case "3des":
		return "3DES"
	case "rc4":
		return "RC4"
	case "md5":
		return "MD5"
	case "sha1":
		return "SHA-1"
	}
	return ""
}

func sizeHeaders() []string {
	out := make([]string, len(sizes))
	for i, s := range sizes {
		out[i] = fmt.Sprintf("%dB", s)
	}
	return out
}
