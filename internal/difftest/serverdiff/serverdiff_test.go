package serverdiff

import (
	"fmt"
	"sync"
	"testing"

	"pdwqo"
	"pdwqo/internal/difftest"
	"pdwqo/internal/rowcmp"
	"pdwqo/internal/server"
)

// openAppliance is the shared sf 0.001 appliance of one topology; the
// corpus sweep reuses them.
func openAppliance(t testing.TB, nodes int) *pdwqo.DB {
	t.Helper()
	db, err := difftest.SharedTPCH(0.001, nodes, 42)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// startWireServer puts a server in front of an appliance and opens one
// client session, tearing both down with the test.
func startWireServer(t *testing.T, db *pdwqo.DB) *server.Client {
	t.Helper()
	srv := server.New(db, server.Config{MaxConcurrent: 4, MaxQueue: 64})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	c, err := server.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestServerVsLibraryTPCH is the wire-path differential sweep: every
// adapted TPC-H query on 1-, 2-, 4-, and 8-node topologies must stream
// byte-identical results through the server and the library.
func TestServerVsLibraryTPCH(t *testing.T) {
	topologies := []int{1, 2, 4, 8}
	if testing.Short() {
		topologies = []int{4}
	}
	if raceEnabled {
		topologies = []int{8}
	}
	for _, nodes := range topologies {
		nodes := nodes
		t.Run(fmt.Sprintf("nodes-%d", nodes), func(t *testing.T) {
			db := openAppliance(t, nodes)
			c := startWireServer(t, db)
			for _, cs := range difftest.TPCHCases() {
				cs := cs
				t.Run(cs.Name, func(t *testing.T) {
					if err := ServerDiff(db, c, cs); err != nil {
						t.Error(err)
					}
				})
			}
		})
	}
}

// TestServerVsLibraryFuzz runs the seeded random corpus through the wire
// differential contract on the 4-node appliance.
func TestServerVsLibraryFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz corpus skipped in -short mode")
	}
	db := openAppliance(t, 4)
	c := startWireServer(t, db)
	for _, cs := range difftest.FuzzCases(40, 20260805) {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			if err := ServerDiff(db, c, cs); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestServerChaos sweeps seeded fault plans over a sample of the corpus
// through the wire path: absorbed faults must not perturb a single byte,
// surviving ones must surface as typed exec errors on a session that
// stays usable, and nothing may leak.
func TestServerChaos(t *testing.T) {
	db := openAppliance(t, 4)
	cases := []difftest.Case{difftest.TPCHCases()[0], difftest.TPCHCases()[4], difftest.TPCHCases()[9]}
	cases = append(cases, difftest.FuzzCases(2, 7)...)
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() || raceEnabled {
		seeds = seeds[:3]
	}
	for _, cs := range cases {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			for _, seed := range seeds {
				if err := ServerChaos(db, cs, seed, 3); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestExecuteEpochRace hammers DB.Execute from many goroutines while a
// writer advances the catalog epoch and republishes statistics, with the
// shared plan cache installed. Under -race this certifies the
// snapshot-isolation story end to end: compilations pin the epoch and the
// stats they resolved, cached plans invalidate cleanly, and every
// concurrent execution still returns correct rows.
func TestExecuteEpochRace(t *testing.T) {
	db, err := pdwqo.OpenTPCH(0.001, 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	db.SetPlanCache(256)
	defer db.SetPlanCache(-1)

	shell := db.Shell()
	nationStats := shell.Table("nation").Stats
	const sql = "SELECT n_name FROM nation WHERE n_regionkey = 1 ORDER BY n_name"
	want, err := db.Execute(sql, pdwqo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantRel := rowcmp.Exact.Render("before", want.Columns, want.Rows)

	const readers, iters = 8, 30
	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			shell.BumpEpoch()
			if i%3 == 0 {
				if err := shell.SetStats("nation", nationStats); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := db.Execute(sql, pdwqo.Options{})
				if err != nil {
					errs <- err
					return
				}
				if derr := rowcmp.Exact.Compare(wantRel, rowcmp.Exact.Render("during", res.Columns, res.Rows)); derr != nil {
					errs <- derr
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writerWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
