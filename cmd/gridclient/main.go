// Command gridclient is a CLI client for a TCP-deployed replicated
// service (see cmd/replicad).
//
//	gridclient -peers 0=:7000,1=:7001,2=:7002 put greeting hello
//	gridclient -peers 0=:7000,1=:7001,2=:7002 get greeting
//	gridclient -peers 0=:7000,1=:7001,2=:7002 add counter 5
//	gridclient -peers 0=:7000,1=:7001,2=:7002 txn "add alice -30" "add bob 30"
//
// Subcommands (kv service): put <k> <v>, get <k>, del <k>, add <k> <n>,
// txn <op>... (each op in the shell-quoted mini-syntax above; commits at
// the end).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"gridrep"
)

func main() {
	peersFlag := flag.String("peers", "", "comma-separated id=host:port list for all replicas")
	id := flag.Uint("client", 1, "client ID (unique per concurrent client)")
	deadline := flag.Duration("deadline", 30*time.Second, "per-operation deadline")
	flag.Parse()
	args := flag.Args()
	if *peersFlag == "" || len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: gridclient -peers ... <put|get|del|add|txn> args...")
		os.Exit(2)
	}
	peers := make(map[gridrep.NodeID]string)
	for _, part := range strings.Split(*peersFlag, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			log.Fatalf("bad peer entry %q", part)
		}
		n, err := strconv.Atoi(kv[0])
		if err != nil {
			log.Fatalf("bad peer id %q", kv[0])
		}
		peers[gridrep.NodeID(n)] = kv[1]
	}

	cli, err := gridrep.Dial(gridrep.DialOptions{
		ID: uint32(*id), Replicas: peers, Deadline: *deadline,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	switch args[0] {
	case "txn":
		runTxn(cli, args[1:])
	default:
		op, isRead, err := parseOp(args)
		if err != nil {
			log.Fatal(err)
		}
		var res []byte
		if isRead {
			res, err = cli.Read(op)
		} else {
			res, err = cli.Write(op)
		}
		if err != nil {
			log.Fatal(err)
		}
		printResult(args[0], res)
	}
}

// parseOp turns CLI words into a kv operation payload.
func parseOp(args []string) (op []byte, isRead bool, err error) {
	switch args[0] {
	case "put":
		if len(args) != 3 {
			return nil, false, fmt.Errorf("usage: put <key> <value>")
		}
		return gridrep.KVPut(args[1], []byte(args[2])), false, nil
	case "get":
		if len(args) != 2 {
			return nil, false, fmt.Errorf("usage: get <key>")
		}
		return gridrep.KVGet(args[1]), true, nil
	case "del":
		if len(args) != 2 {
			return nil, false, fmt.Errorf("usage: del <key>")
		}
		return gridrep.KVDelete(args[1]), false, nil
	case "add":
		if len(args) != 3 {
			return nil, false, fmt.Errorf("usage: add <key> <delta>")
		}
		n, err := strconv.ParseInt(args[2], 10, 64)
		if err != nil {
			return nil, false, fmt.Errorf("bad delta %q", args[2])
		}
		return gridrep.KVAdd(args[1], n), false, nil
	default:
		return nil, false, fmt.Errorf("unknown op %q", args[0])
	}
}

func runTxn(cli *gridrep.Client, ops []string) {
	if len(ops) == 0 {
		log.Fatal("txn: no operations given")
	}
	tx := cli.Begin()
	for _, raw := range ops {
		words := strings.Fields(raw)
		op, _, err := parseOp(words)
		if err != nil {
			tx.Abort()
			log.Fatalf("txn op %q: %v", raw, err)
		}
		res, err := tx.Do(op)
		if err != nil {
			// Abort before exiting: a failed op (a conflict, a
			// rejected op) leaves the transaction open and its locks
			// held on the leader until a leader switch.
			tx.Abort()
			log.Fatalf("txn op %q: %v", raw, err)
		}
		printResult(words[0], res)
	}
	if err := tx.Commit(); err != nil {
		log.Fatalf("commit: %v", err)
	}
	fmt.Println("committed")
}

func printResult(verb string, res []byte) {
	switch verb {
	case "get":
		v, found := gridrep.KVReply(res)
		if !found {
			fmt.Println("(not found)")
			return
		}
		fmt.Printf("%s\n", v)
	case "add":
		n, _ := gridrep.KVInt(res)
		fmt.Println(n)
	default:
		fmt.Println("ok")
	}
}
