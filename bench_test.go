// Benchmarks regenerating the paper's evaluation (§4), one per table or
// figure. Run everything with:
//
//	go test -bench=. -benchmem
//
// Naming: BenchmarkRRT* reproduce the response-time numbers quoted in the
// §4.1 text for the three network configurations; BenchmarkThroughput*
// reproduce Figures 5-8; BenchmarkTxnRT* reproduce Table 1;
// BenchmarkTxnThroughput* reproduce Figure 9; BenchmarkAblation* cover
// the design-choice ablations called out in DESIGN.md §5. Custom metrics:
// ms/req (mean response time), req/s or txn/s (closed-loop throughput).
//
// cmd/benchpaxos runs the same experiments with the paper's full sweep
// parameters and prints paper-style tables.
package gridrep_test

import (
	"fmt"
	"testing"
	"time"

	"gridrep/internal/bench"
	"gridrep/internal/cluster"
	"gridrep/internal/netem"
	"gridrep/internal/service"
)

// benchCluster builds a 3-replica cluster on the given profile.
func benchCluster(b *testing.B, profile netem.Profile, mut func(*cluster.Config)) *cluster.Cluster {
	b.Helper()
	cfg := cluster.Config{Profile: profile, Seed: 1, ClientDeadline: 120 * time.Second}
	if mut != nil {
		mut(&cfg)
	}
	c, err := cluster.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	if _, err := c.WaitForLeader(15 * time.Second); err != nil {
		b.Fatal(err)
	}
	return c
}

// benchRRT runs b.N sequential requests of the class through one client
// and reports the mean response time.
func benchRRT(b *testing.B, profile netem.Profile, class bench.ReqClass) {
	c := benchCluster(b, profile, nil)
	cli, err := c.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	issue := func() error {
		switch class {
		case bench.ClassRead:
			_, err := cli.Read(service.NoopReadOp)
			return err
		case bench.ClassWrite:
			_, err := cli.Write(service.NoopWriteOp)
			return err
		default:
			_, err := cli.Original(service.NoopWriteOp)
			return err
		}
	}
	if err := issue(); err != nil { // warmup
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := issue(); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	b.ReportMetric(float64(elapsed.Microseconds())/1000.0/float64(b.N), "ms/req")
}

// §4.1 text, Sysnet: original 0.181 ms / read 0.263 ms / write 0.338 ms.
func BenchmarkRRTSysnetOriginal(b *testing.B) { benchRRT(b, netem.Sysnet(), bench.ClassOriginal) }
func BenchmarkRRTSysnetRead(b *testing.B)     { benchRRT(b, netem.Sysnet(), bench.ClassRead) }
func BenchmarkRRTSysnetWrite(b *testing.B)    { benchRRT(b, netem.Sysnet(), bench.ClassWrite) }

// §4.1 text, Berkeley→Princeton: 91.85 / 92.79 / 93.13 ms (all ≈ equal).
func BenchmarkRRTB2POriginal(b *testing.B) { benchRRT(b, netem.B2P(), bench.ClassOriginal) }
func BenchmarkRRTB2PRead(b *testing.B)     { benchRRT(b, netem.B2P(), bench.ClassRead) }
func BenchmarkRRTB2PWrite(b *testing.B)    { benchRRT(b, netem.B2P(), bench.ClassWrite) }

// §4.1 text, WAN spread: 70.82 / 75.49 / 106.73 ms (X-Paxos ≪ basic).
func BenchmarkRRTWANOriginal(b *testing.B) { benchRRT(b, netem.WAN(0), bench.ClassOriginal) }
func BenchmarkRRTWANRead(b *testing.B)     { benchRRT(b, netem.WAN(0), bench.ClassRead) }
func BenchmarkRRTWANWrite(b *testing.B)    { benchRRT(b, netem.WAN(0), bench.ClassWrite) }

// benchThroughput runs one throughput point (c clients, b.N total
// requests) and reports req/s.
func benchThroughput(b *testing.B, profile netem.Profile, class bench.ReqClass, clients int, mut func(*cluster.Config)) {
	c := benchCluster(b, profile, mut)
	total := b.N
	if total < clients {
		total = clients
	}
	b.ResetTimer()
	tp, err := bench.MeasureThroughput(c, class, clients, total)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(tp, "req/s")
}

// Figure 5: service throughput on Sysnet (the 16-client point of each
// series; cmd/benchpaxos sweeps 1-16).
func BenchmarkThroughputSysnetRead(b *testing.B) {
	benchThroughput(b, netem.Sysnet(), bench.ClassRead, 16, nil)
}
func BenchmarkThroughputSysnetWrite(b *testing.B) {
	benchThroughput(b, netem.Sysnet(), bench.ClassWrite, 16, nil)
}
func BenchmarkThroughputSysnetOriginal(b *testing.B) {
	benchThroughput(b, netem.Sysnet(), bench.ClassOriginal, 16, nil)
}

// Figure 6: more clients (the 64-client points, near the paper's peak).
func BenchmarkThroughputManyClientsRead(b *testing.B) {
	benchThroughput(b, netem.Sysnet(), bench.ClassRead, 64, nil)
}
func BenchmarkThroughputManyClientsWrite(b *testing.B) {
	benchThroughput(b, netem.Sysnet(), bench.ClassWrite, 64, nil)
}

// Figure 7: Berkeley→Princeton (the 16-client points; curves coincide).
func BenchmarkThroughputB2PRead(b *testing.B) {
	benchThroughput(b, netem.B2P(), bench.ClassRead, 16, nil)
}
func BenchmarkThroughputB2PWrite(b *testing.B) {
	benchThroughput(b, netem.B2P(), bench.ClassWrite, 16, nil)
}

// Figure 8: WAN spread (the 16-client points; read clearly above write).
func BenchmarkThroughputWANRead(b *testing.B) {
	benchThroughput(b, netem.WAN(0), bench.ClassRead, 16, nil)
}
func BenchmarkThroughputWANWrite(b *testing.B) {
	benchThroughput(b, netem.WAN(0), bench.ClassWrite, 16, nil)
}

// benchTxnRT runs b.N sequential transactions and reports mean TRT.
func benchTxnRT(b *testing.B, mode bench.TxnMode, nReqs int) {
	c := benchCluster(b, netem.Sysnet(), nil)
	b.ResetTimer()
	s, err := bench.MeasureTxnRT(c, mode, nReqs, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(s.Mean, "ms/txn")
}

// Table 1: transaction response time on Sysnet.
// Paper: read/write 1.17 / 1.79 ms; write-only 1.29 / 2.01 ms;
// optimized 0.85 / 1.23 ms (3 / 5 requests per transaction).
func BenchmarkTxnRTReadWrite3(b *testing.B) { benchTxnRT(b, bench.TxnReadWrite, 3) }
func BenchmarkTxnRTReadWrite5(b *testing.B) { benchTxnRT(b, bench.TxnReadWrite, 5) }
func BenchmarkTxnRTWriteOnly3(b *testing.B) { benchTxnRT(b, bench.TxnWriteOnly, 3) }
func BenchmarkTxnRTWriteOnly5(b *testing.B) { benchTxnRT(b, bench.TxnWriteOnly, 5) }
func BenchmarkTxnRTOptimized3(b *testing.B) { benchTxnRT(b, bench.TxnOptimized, 3) }
func BenchmarkTxnRTOptimized5(b *testing.B) { benchTxnRT(b, bench.TxnOptimized, 5) }

// benchTxnThroughput runs one Figure 9 point (8 clients).
func benchTxnThroughput(b *testing.B, mode bench.TxnMode, nReqs int) {
	c := benchCluster(b, netem.Sysnet(), nil)
	total := b.N
	if total < 8 {
		total = 8
	}
	b.ResetTimer()
	tp, err := bench.MeasureTxnThroughput(c, mode, nReqs, 8, total)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(tp, "txn/s")
}

// Figure 9a: transaction throughput, 3 requests per transaction.
func BenchmarkTxnThroughput3ReadWrite(b *testing.B) { benchTxnThroughput(b, bench.TxnReadWrite, 3) }
func BenchmarkTxnThroughput3WriteOnly(b *testing.B) { benchTxnThroughput(b, bench.TxnWriteOnly, 3) }
func BenchmarkTxnThroughput3Optimized(b *testing.B) { benchTxnThroughput(b, bench.TxnOptimized, 3) }

// Figure 9b: transaction throughput, 5 requests per transaction.
func BenchmarkTxnThroughput5ReadWrite(b *testing.B) { benchTxnThroughput(b, bench.TxnReadWrite, 5) }
func BenchmarkTxnThroughput5WriteOnly(b *testing.B) { benchTxnThroughput(b, bench.TxnWriteOnly, 5) }
func BenchmarkTxnThroughput5Optimized(b *testing.B) { benchTxnThroughput(b, bench.TxnOptimized, 5) }

// §4.3 ablation: tolerating more failures (n=5, t=2) on the WAN profile.
// The paper predicts writes barely change while X-Paxos reads degrade
// with the extra wide-area confirm paths.
func BenchmarkAblationReplicas5Read(b *testing.B) {
	c := benchCluster(b, netem.WAN(0), func(cfg *cluster.Config) { cfg.N = 5 })
	b.ResetTimer()
	s, err := bench.MeasureRRT(c, bench.ClassRead, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(s.Mean, "ms/req")
}

func BenchmarkAblationReplicas5Write(b *testing.B) {
	c := benchCluster(b, netem.WAN(0), func(cfg *cluster.Config) { cfg.N = 5 })
	b.ResetTimer()
	s, err := bench.MeasureRRT(c, bench.ClassWrite, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(s.Mean, "ms/req")
}

// DESIGN.md §5.1 ablation: disable multi-instance accept waves. Write
// throughput collapses to ~1/(2m) because §3.3's no-gap rule then admits
// only one instance at a time.
func BenchmarkAblationNoBatchWrite(b *testing.B) {
	benchThroughput(b, netem.Sysnet(), bench.ClassWrite, 16,
		func(cfg *cluster.Config) { cfg.NoBatch = true })
}

// DESIGN.md §5.2 ablation: proposal state size. The basic protocol ships
// full post-execution state; larger service state costs accept-message
// bytes. Measured with the KV service at three value sizes.
func BenchmarkAblationStateSize(b *testing.B) {
	for _, size := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("state=%dB", size), func(b *testing.B) {
			c := benchCluster(b, netem.Sysnet(), func(cfg *cluster.Config) {
				cfg.Service = service.KVFactory
			})
			cli, err := c.NewClient()
			if err != nil {
				b.Fatal(err)
			}
			defer cli.Close()
			payload := make([]byte, size)
			if _, err := cli.Write(service.KVPut("warm", payload)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := cli.Write(service.KVPut("k", payload)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(time.Since(start).Microseconds())/1000.0/float64(b.N), "ms/req")
		})
	}
}

// DESIGN.md §5.2 ablation, second axis: the §3.3 state-transfer modes.
// With a large store, full mode ships the whole snapshot per wave while
// delta mode ships only the touched keys. The mode follows the service:
// KV runs in delta mode, and in full mode behind the bare Service
// interface, as a user's service without Differ would.
func BenchmarkAblationStateModes(b *testing.B) {
	for _, mode := range []struct {
		name    string
		service service.Factory
	}{
		{"full", func() service.Service { return struct{ service.Service }{service.NewKV()} }},
		{"delta", service.KVFactory},
	} {
		b.Run(mode.name, func(b *testing.B) {
			c := benchCluster(b, netem.Sysnet(), func(cfg *cluster.Config) {
				cfg.Service = mode.service
			})
			cli, err := c.NewClient()
			if err != nil {
				b.Fatal(err)
			}
			defer cli.Close()
			// Pre-populate a store large enough that full snapshots hurt.
			big := make([]byte, 1024)
			for i := 0; i < 200; i++ {
				if _, err := cli.Write(service.KVPut(fmt.Sprintf("pre%d", i), big)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := cli.Write(service.KVAdd("hot", 1)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(time.Since(start).Microseconds())/1000.0/float64(b.N), "ms/req")
		})
	}
}
