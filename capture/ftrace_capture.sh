#!/bin/sh
# Configure ftrace to record the events that `reqflow reconstruct
# --backend ftrace` understands, then copy the per-cpu buffers out.
#
# TEMPLATE: the test suite checks only the event names it enables
# against reqflow's, and runs none of it. Requires root and a tracefs
# mount; the kprobe definitions additionally require a kernel with
# BTF-typed probe arguments (CONFIG_PROBE_EVENTS_BTF_ARGS). On older
# kernels prefer capture.bt, which extracts the same fields with bpftrace.
#
# Addresses recorded by the kprobes print as raw integers rather than
# dotted quads. That is fine: the reconstructor treats addresses as
# opaque strings and only needs them to be self-consistent within a
# capture.
#
# Usage: ftrace_capture.sh <output-dir> [seconds]

set -eu

OUT=${1:?usage: ftrace_capture.sh <output-dir> [seconds]}
DURATION=${2:-30}
T=/sys/kernel/tracing
[ -d "$T" ] || T=/sys/kernel/debug/tracing
[ -d "$T" ] || { echo "tracefs not mounted" >&2; exit 1; }

mkdir -p "$OUT"

echo 0 > "$T/tracing_on"
echo > "$T/trace"
echo nop > "$T/current_tracer"
echo mono > "$T/trace_clock" 2>/dev/null || true
echo 65536 > "$T/buffer_size_kb"

# syscall boundaries
for sc in sendto sendmsg write writev recvfrom recvmsg read readv; do
    echo 1 > "$T/events/syscalls/sys_enter_${sc}/enable"
    echo 1 > "$T/events/syscalls/sys_exit_${sc}/enable"
done

# incoming TCP data (tracepoint carries the 4-tuple natively)
echo 1 > "$T/events/tcp/tcp_rcv_space_adjust/enable"

# process tree
echo 1 > "$T/events/sched/sched_process_fork/enable"
echo 1 > "$T/events/sched/sched_process_exit/enable"

# outgoing TCP data: two kprobes named after the event labels the
# parser expects, pulling the 4-tuple out of struct sock (BTF syntax)
echo 'p:reqflow/tcp_send_sock_sendmsg tcp_sendmsg saddr=$arg1->__sk_common.skc_rcv_saddr:u32 sport=$arg1->__sk_common.skc_num:u16 daddr=$arg1->__sk_common.skc_daddr:u32 dport=$arg1->__sk_common.skc_dport:u16' >> "$T/kprobe_events"
echo 'p:reqflow/tcp_send_sys_sendmsg tcp_sendpage  saddr=$arg1->__sk_common.skc_rcv_saddr:u32 sport=$arg1->__sk_common.skc_num:u16 daddr=$arg1->__sk_common.skc_daddr:u32 dport=$arg1->__sk_common.skc_dport:u16' >> "$T/kprobe_events"
echo 1 > "$T/events/reqflow/enable"

# user events: enable anything else you want tallied into spans and
# pass the same names via --user-event, e.g.:
# echo 1 > "$T/events/exceptions/page_fault_user/enable"

echo 1 > "$T/tracing_on"
sleep "$DURATION"
echo 0 > "$T/tracing_on"

i=0
for f in "$T"/per_cpu/cpu*/trace; do
    cp "$f" "$OUT/cpu${i}.ftrace.log"
    i=$((i + 1))
done

# teardown
echo 0 > "$T/events/reqflow/enable"
echo '-:reqflow/tcp_send_sock_sendmsg' >> "$T/kprobe_events" 2>/dev/null || true
echo '-:reqflow/tcp_send_sys_sendmsg' >> "$T/kprobe_events" 2>/dev/null || true

echo "wrote $i streams to $OUT" >&2
echo "next: reqflow reconstruct --backend ftrace --gateway <ip:port> $OUT/cpu*.ftrace.log --out flows/" >&2
