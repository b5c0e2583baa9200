package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one hrdm-server child process.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	// exited is closed once cmd.Wait has returned.
	exited chan struct{}
}

// startServer execs bin over the durable store in dir and returns once
// the server prints its listening line, with the time that took: storage
// decode, WAL replay and index build.
func startServer(bin, dir string) (*serverProc, time.Duration, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-open", dir)
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, exited: make(chan struct{})}
	listening := make(chan string, 1)
	go func() {
		defer close(p.exited)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				listening <- strings.Fields(rest)[0]
			}
		}
		cmd.Wait()
	}()
	select {
	case p.addr = <-listening:
		return p, time.Since(t0), nil
	case <-p.exited:
		return nil, 0, fmt.Errorf("hrdm-server exited before listening: %v", cmd.ProcessState)
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, 0, errors.New("hrdm-server did not start listening within 60s")
	}
}

// kill stops the server at once, as a crash would, and waits for it.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// stop drains the server with SIGTERM and waits for it to exit; a server
// still running after 30s is killed.
func (p *serverProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return err
	}
	select {
	case <-p.exited:
	case <-time.After(30 * time.Second):
		p.kill()
		return errors.New("hrdm-server did not drain within 30s")
	}
	if !p.cmd.ProcessState.Success() {
		return fmt.Errorf("hrdm-server drain: %v", p.cmd.ProcessState)
	}
	return nil
}

// peakRSS reports the server's peak resident set size in bytes.
func (p *serverProc) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// requestTimeout bounds one round trip; a reply later than this counts
// as failed.
const requestTimeout = 30 * time.Second

type wireReq struct {
	Op    string `json:"op"`
	Q     string `json:"q,omitempty"`
	Rel   string `json:"rel,omitempty"`
	Tuple string `json:"tuple,omitempty"`
}

type wireResp struct {
	Result string `json:"result,omitempty"`
	Rows   int    `json:"rows,omitempty"`
}

// tcpExec is one client connection speaking the server's line protocol.
type tcpExec struct {
	addr string
	c    net.Conn
	r    *bufio.Reader
	line []byte
}

func (x *tcpExec) close() {
	if x.c != nil {
		x.c.Close()
		x.c = nil
	}
}

// roundTrip sends one request line and returns the reply line, which is
// only valid until the next call. After an I/O error the connection is
// dropped and the next call dials afresh.
func (x *tcpExec) roundTrip(req wireReq) ([]byte, error) {
	if x.c == nil {
		c, err := net.DialTimeout("tcp", x.addr, requestTimeout)
		if err != nil {
			return nil, err
		}
		x.c, x.r = c, bufio.NewReaderSize(c, 64<<10)
	}
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	x.c.SetDeadline(time.Now().Add(requestTimeout))
	if _, err := x.c.Write(append(b, '\n')); err != nil {
		x.close()
		return nil, err
	}
	x.line = x.line[:0]
	for {
		frag, err := x.r.ReadSlice('\n')
		x.line = append(x.line, frag...)
		if err == nil {
			return x.line, nil
		}
		if err != bufio.ErrBufferFull {
			x.close()
			return nil, err
		}
	}
}

var (
	okPrefix  = []byte(`{"ok":true`)
	rowsField = []byte(`,"rows":`)
)

// call sends req and fails unless the server answered ok.
func (x *tcpExec) call(req wireReq) ([]byte, error) {
	line, err := x.roundTrip(req)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(line, okPrefix) {
		return nil, fmt.Errorf("%s: %s", req.Op, bytes.TrimSpace(line))
	}
	return line, nil
}

func (x *tcpExec) read(q string, keep bool) (int, string, error) {
	line, err := x.call(wireReq{Op: "query", Q: q})
	if err != nil {
		return 0, "", err
	}
	if keep {
		var resp wireResp
		if err := json.Unmarshal(line, &resp); err != nil {
			return 0, "", fmt.Errorf("query reply: %w", err)
		}
		return resp.Rows, resp.Result, nil
	}
	// Only the row count is needed, and it is the reply's last field
	// (absent when zero); skip decoding the rendered result.
	rows := 0
	if i := bytes.LastIndex(line, rowsField); i >= 0 {
		digits := bytes.TrimRight(line[i+len(rowsField):], "}\n")
		if rows, err = strconv.Atoi(string(digits)); err != nil {
			return 0, "", fmt.Errorf("query reply rows: %w", err)
		}
	}
	return rows, "", nil
}

func (x *tcpExec) commitGroup(rel string, specs []string) error {
	if _, err := x.call(wireReq{Op: "begin_group"}); err != nil {
		return err
	}
	for _, s := range specs {
		if _, err := x.call(wireReq{Op: "stage", Rel: rel, Tuple: s}); err != nil {
			x.roundTrip(wireReq{Op: "abort"})
			return err
		}
	}
	_, err := x.call(wireReq{Op: "commit"})
	return err
}
