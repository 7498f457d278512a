package slp

import (
	"bufio"
	"net"
	"testing"
	"time"
)

// pushServer accepts connections on a loopback listener, completes the
// login handshake, and streams MapReply frames at each client until the
// connection breaks. It returns the listener's address.
func pushServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := ReadMessage(conn); err != nil {
					return
				}
				bw := bufio.NewWriter(conn)
				if WriteMessage(bw, Welcome{AvatarID: 1, Land: "push", Size: 256}) != nil {
					return
				}
				push := MapReply{Entries: []MapEntry{{ID: 7}}}
				for tick := int64(0); ; tick++ {
					push.SimTime = tick
					if WriteMessage(bw, push) != nil || bw.Flush() != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestClientCloseDuringPushes: Close runs on the caller's goroutine while
// the read loop is delivering pushes. It must never close a channel the
// read loop is sending on (a "send on closed channel" panic), and the
// data channels must still close once the read loop has exited.
func TestClientCloseDuringPushes(t *testing.T) {
	addr := pushServer(t)
	iters := 3000
	if testing.Short() {
		iters = 300
	}
	for i := 0; i < iters; i++ {
		c, err := Dial(addr, "a", "pw", 5*time.Second)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		if i%2 == 0 {
			// Let the read loop get busy first on every other run.
			select {
			case <-c.Maps():
			case <-time.After(5 * time.Second):
				t.Fatalf("run %d: no push arrived", i)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		deadline := time.After(5 * time.Second)
		for open := true; open; {
			select {
			case _, open = <-c.Maps():
			case <-deadline:
				t.Fatalf("run %d: Maps still open 5 s after Close", i)
			}
		}
		if _, open := <-c.FullMaps(); open {
			t.Fatalf("run %d: FullMaps open after the read loop exited", i)
		}
		if _, open := <-c.Chats(); open {
			t.Fatalf("run %d: Chats open after the read loop exited", i)
		}
		if c.Err() == nil {
			t.Fatalf("run %d: closed client reports no error", i)
		}
	}
}
