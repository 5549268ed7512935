package sslperf_test

import (
	"fmt"
	"io"
	"time"

	"sslperf"
)

// ExamplePipe shows the minimal end-to-end use of the library: an SSL
// client and server over the in-memory transport the paper's
// standalone measurements use.
func ExamplePipe() {
	id, err := sslperf.NewIdentity(sslperf.NewPRNG(1), 512, "example", time.Now())
	if err != nil {
		panic(err)
	}
	clientEnd, serverEnd := sslperf.Pipe()
	client := sslperf.ClientConn(clientEnd, &sslperf.Config{
		Rand:       sslperf.NewPRNG(2),
		ServerName: "example",
	})
	server := sslperf.ServerConn(serverEnd, &sslperf.Config{
		Rand:    sslperf.NewPRNG(3),
		Key:     id.Key,
		CertDER: id.CertDER,
	})
	go func() {
		buf := make([]byte, 4)
		io.ReadFull(server, buf)
		server.Write(buf)
	}()
	client.Write([]byte("ping"))
	buf := make([]byte, 4)
	io.ReadFull(client, buf)
	fmt.Printf("%s\n", buf)
	// Output: ping
}

// ExampleExperimentByID_table2 reproduces the paper's Table 2: the
// server handshake split into its steps, each with the crypto calls it
// made.
func ExampleExperimentByID_table2() {
	e, err := sslperf.ExperimentByID("table2")
	if err != nil {
		panic(err)
	}
	rep, err := e.Run(&sslperf.ExperimentConfig{Quick: true, KeyBits: 512})
	if err != nil {
		panic(err)
	}
	// Step 5 (get_client_kx) holds the RSA private decryption, the
	// paper's dominant handshake cost.
	var step string
	var calls []string
	for _, row := range rep.Tables[0].Rows() {
		if row[1] != "" {
			step = row[0] + " " + row[1]
		}
		if step == "5 get_client_kx" {
			calls = append(calls, row[3])
		}
	}
	fmt.Println("5 get_client_kx", calls)
	// Output: 5 get_client_kx [finish_mac rsa_private_decryption gen_master_secret]
}

// ExampleSuiteByName looks up the paper's cipher suite.
func ExampleSuiteByName() {
	s, err := sslperf.SuiteByName("DES-CBC3-SHA")
	if err != nil {
		panic(err)
	}
	fmt.Printf("%#04x key=%dB mac=%dB\n", uint16(s.ID), s.KeyLen, s.MACLen())
	// Output: 0x000a key=24B mac=20B
}

// ExampleExperimentByID runs one paper experiment (Table 4, the
// static cipher-characteristics table).
func ExampleExperimentByID() {
	e, err := sslperf.ExperimentByID("table4")
	if err != nil {
		panic(err)
	}
	rep, err := e.Run(&sslperf.ExperimentConfig{Quick: true, KeyBits: 512})
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.ID, len(rep.Tables) > 0)
	// Output: table4 true
}
