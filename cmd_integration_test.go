package melissa

// End-to-end test of the standalone binaries: a melissa-server process and
// several melissa-client processes cooperating over TCP, exactly as a user
// would run them from a shell — once per registered problem.

import (
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestMultiProcessServerAndClients(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs separate processes")
	}
	dir := t.TempDir()
	serverBin := filepath.Join(dir, "melissa-server")
	clientBin := filepath.Join(dir, "melissa-client")
	for bin, pkg := range map[string]string{serverBin: "./cmd/melissa-server", clientBin: "./cmd/melissa-client"} {
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}

	// The same binaries run every problem end-to-end with just a flag
	// change; the Gray–Scott fields are two-channel (128 values).
	for _, tc := range []struct {
		problem string
		width   int
	}{{HeatName, 64}, {GrayScottName, 128}} {
		t.Run(tc.problem, func(t *testing.T) {
			checkPublishedModel(t, runMultiProcessEnsemble(t, serverBin, clientBin, tc.problem), tc.problem, tc.width)
		})
	}
}

// checkPublishedModel loads a melissa-server -surrogate-out checkpoint with
// no architecture arguments and checks that it predicts a finite field of
// the problem's width.
func checkPublishedModel(t *testing.T, path, problem string, width int) {
	t.Helper()
	s, err := LoadSurrogateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Meta().Problem != problem {
		t.Fatalf("checkpoint models %q, want %q", s.Meta().Problem, problem)
	}
	prob, err := ProblemByName(problem)
	if err != nil {
		t.Fatal(err)
	}
	field := s.Predict(midPoint(prob), 3*s.Meta().Dt)
	if len(field) != width {
		t.Fatalf("field length %d, want %d", len(field), width)
	}
	for i, v := range field {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("field[%d] = %v", i, v)
		}
	}
}

// TestMultiProcessRanksOverTCP drives the multi-process deployment: one
// melissa-server OS process per training rank, joined over the TCP
// collective ring (-proc / -ranks-transport), with the ensemble clients
// streaming to both rank processes. Rank 0 must publish a trained model
// that loads and predicts.
func TestMultiProcessRanksOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs separate processes")
	}
	bdir := t.TempDir()
	serverBin := filepath.Join(bdir, "melissa-server")
	clientBin := filepath.Join(bdir, "melissa-client")
	for bin, pkg := range map[string]string{serverBin: "./cmd/melissa-server", clientBin: "./cmd/melissa-client"} {
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}

	dir := t.TempDir()
	const ranks = 2
	const clients = 3
	model := filepath.Join(dir, "model.mlsg")

	// Reserve a loopback port per rank for the collective ring. The
	// listen-close-reuse pattern has a tiny race window, acceptable for a
	// test.
	ringAddrs := make([]string, ranks)
	for r := range ringAddrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ringAddrs[r] = ln.Addr().String()
		ln.Close()
	}
	transportList := strings.Join(ringAddrs, ",")

	// One server process per rank; each publishes its own client address.
	srvs := make([]*exec.Cmd, ranks)
	outs := make([]*strings.Builder, ranks)
	rankAddrFiles := make([]string, ranks)
	for r := 0; r < ranks; r++ {
		rankAddrFiles[r] = filepath.Join(dir, fmt.Sprintf("addrs-rank%d.txt", r))
		srv := exec.Command(serverBin,
			"-ranks", fmt.Sprint(ranks), "-proc", fmt.Sprint(r), "-ranks-transport", transportList,
			"-clients", fmt.Sprint(clients), "-problem", HeatName,
			"-grid", "8", "-steps", "6", "-batch", "4",
			"-buffer", "Reservoir", "-capacity", "60", "-threshold", "8",
			"-addr-file", rankAddrFiles[r], "-surrogate-out", model)
		outs[r] = &strings.Builder{}
		srv.Stdout = outs[r]
		srv.Stderr = outs[r]
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		defer srv.Process.Kill()
		srvs[r] = srv
	}

	// Wait for every rank to publish, then assemble the client-facing
	// address file in rank order — the documented multi-process workflow.
	addrFile := filepath.Join(dir, "addrs.txt")
	deadline := time.Now().Add(30 * time.Second)
	var combined string
	for {
		combined = ""
		complete := true
		for r := 0; r < ranks; r++ {
			data, err := os.ReadFile(rankAddrFiles[r])
			if err != nil || strings.TrimSpace(string(data)) == "" {
				complete = false
				break
			}
			combined += strings.TrimSpace(string(data)) + "\n"
		}
		if complete {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank servers never published addresses; rank0:\n%s\nrank1:\n%s", outs[0].String(), outs[1].String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := os.WriteFile(addrFile, []byte(combined), 0o644); err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, clients)
	for id := 0; id < clients; id++ {
		go func(id int) {
			out, err := exec.Command(clientBin,
				"-id", fmt.Sprint(id), "-problem", HeatName, "-grid", "8", "-steps", "6",
				"-addr-file", addrFile).CombinedOutput()
			if err != nil {
				err = fmt.Errorf("client %d: %v\n%s", id, err, out)
			}
			errCh <- err
		}(id)
	}
	for i := 0; i < clients; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}

	for r, srv := range srvs {
		done := make(chan error, 1)
		go func() { done <- srv.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("rank %d server exited with %v; output:\n%s", r, err, outs[r].String())
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("rank %d server did not terminate; output:\n%s", r, outs[r].String())
		}
	}
	if !strings.Contains(outs[0].String(), "trained") {
		t.Fatalf("rank 0 output missing summary:\n%s", outs[0].String())
	}

	checkPublishedModel(t, model, HeatName, 64)
}

// runMultiProcessEnsemble drives one server + 3 clients for a problem and
// returns the path of the published surrogate checkpoint.
func runMultiProcessEnsemble(t *testing.T, serverBin, clientBin, problem string) string {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addrs.txt")
	model := filepath.Join(dir, "model.mlsg")
	const clients = 3

	srv := exec.Command(serverBin,
		"-ranks", "2", "-clients", fmt.Sprint(clients), "-problem", problem,
		"-grid", "8", "-steps", "6", "-batch", "4",
		"-buffer", "Reservoir", "-capacity", "60", "-threshold", "8",
		"-addr-file", addrFile, "-surrogate-out", model)
	var srvOut strings.Builder
	srv.Stdout = &srvOut
	srv.Stderr = &srvOut
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	// Wait for the server to publish its rank addresses.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && strings.Count(strings.TrimSpace(string(data)), "\n") == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never published addresses; output:\n%s", srvOut.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Run the ensemble clients concurrently, as separate processes.
	errCh := make(chan error, clients)
	for id := 0; id < clients; id++ {
		go func(id int) {
			out, err := exec.Command(clientBin,
				"-id", fmt.Sprint(id), "-problem", problem, "-grid", "8", "-steps", "6",
				"-addr-file", addrFile).CombinedOutput()
			if err != nil {
				err = fmt.Errorf("client %d: %v\n%s", id, err, out)
			}
			errCh <- err
		}(id)
	}
	for i := 0; i < clients; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server exited with %v; output:\n%s", err, srvOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("server did not terminate; output:\n%s", srvOut.String())
	}
	if !strings.Contains(srvOut.String(), "trained") {
		t.Fatalf("server output missing summary:\n%s", srvOut.String())
	}
	return model
}
