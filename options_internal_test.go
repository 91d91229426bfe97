package gridrep

import (
	"reflect"
	"testing"
	"time"

	"gridrep/internal/cluster"
)

// TestEveryTunableReachesTheReplica sets every field of Options — found
// by reflection, so a field added later is covered without touching this
// test — boots one replica through each front door, and requires the
// replica to report exactly what was asked for. A knob a layer forgets
// to forward fails here; that is how ElectionTimeout, RetryTimeout and
// NoBatch were once unreachable over TCP.
func TestEveryTunableReachesTheReplica(t *testing.T) {
	var want Options
	v := reflect.ValueOf(&want).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch {
		case f.Type() == reflect.TypeOf(time.Duration(0)):
			f.SetInt(int64(time.Duration(i+2) * time.Millisecond))
		case f.Kind() == reflect.Int:
			f.SetInt(int64(i + 2))
		case f.Kind() == reflect.Uint64:
			f.SetUint(uint64(1000 + i))
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Options.%s has kind %v: teach this test to set it", v.Type().Field(i).Name, f.Kind())
		}
	}

	c, err := cluster.New(cluster.Config{N: 1, Service: func() Service { return NewKV() }, Options: want})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, _ := c.Replica(0)
	if got := rep.Options(); got != want {
		t.Errorf("cluster.New: replica runs with\n%+v\nwant\n%+v", got, want)
	}

	srv, err := ListenAndServe(ServerOptions{ID: 0, Peers: map[NodeID]string{0: "127.0.0.1:0"}, Service: NewKV(), Options: want})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.node.Replica().Options(); got != want {
		t.Errorf("ListenAndServe: replica runs with\n%+v\nwant\n%+v", got, want)
	}
}
