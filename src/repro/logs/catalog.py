"""The event vocabulary: templates and parsing patterns per event type.

Every log line the simulator writes is an instance of an
:class:`EventSpec` from the :data:`EVENTS` registry.  A spec carries:

* ``template`` -- a ``str.format`` template over the event's attributes,
  producing the free-text message body exactly as the emitters write it;
* ``pattern`` -- a compiled regex with named groups that recovers those
  attributes from the message body (the exact inverse of the template);
* ``daemon`` -- the reporting daemon tag in the line (``kernel``, ``bc``,
  ``cc``, ``erd``, ``slurmctld``, ``pbs_server``, ...);
* ``source`` and ``severity``.

The vocabulary follows the paper's Tables II--IV: node-internal kernel and
file-system messages, NHC/ALPS application messages, blade- and
cabinet-controller health faults (NHF, NVF, BCHF, ECB, ...), ERD events
(``ec_sedc_warning``, ``ec_hw_error``, ``ec_heartbeat_stop``), interconnect
link errors for all three fabrics, and both scheduler dialects.

The parser does **not** get an event-type tag in the line; it recognises
events purely from message shape, as the paper's log mining had to.
Round-trip (template -> line -> pattern -> attrs) is covered by property
tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping

from repro.logs.record import LogSource, Severity

__all__ = [
    "EventSpec",
    "EVENTS",
    "event_spec",
    "DaemonDispatcher",
]


@dataclass(frozen=True)
class EventSpec:
    """Definition of one event type in the vocabulary."""

    key: str
    source: LogSource
    daemon: str
    severity: Severity
    template: str
    pattern: re.Pattern = field(repr=False)
    #: attributes that must be supplied at emission time
    required: tuple[str, ...] = ()
    #: default attribute values merged under supplied attrs
    defaults: Mapping[str, object] = field(default_factory=dict)

    def format(self, attrs: Mapping[str, object]) -> str:
        """Render the message body for the given attributes."""
        merged = {**self.defaults, **attrs}
        missing = [k for k in self.required if k not in merged]
        if missing:
            raise KeyError(
                f"event {self.key!r} missing required attrs: {', '.join(missing)}"
            )
        return self.template.format(**merged)

    def parse(self, message: str) -> dict[str, str] | None:
        """Recover attributes from a message body, or None if no match."""
        m = self.pattern.match(message)
        if m is None:
            return None
        return {k: v for k, v in m.groupdict().items() if v is not None}


EVENTS: dict[str, EventSpec] = {}


def _register(
    key: str,
    source: LogSource,
    daemon: str,
    severity: Severity,
    template: str,
    pattern: str,
    required: tuple[str, ...] = (),
    defaults: Mapping[str, object] | None = None,
) -> None:
    if key in EVENTS:
        raise ValueError(f"duplicate event key: {key}")
    EVENTS[key] = EventSpec(
        key=key,
        source=source,
        daemon=daemon,
        severity=severity,
        template=template,
        pattern=re.compile(pattern),
        required=required,
        defaults=dict(defaults or {}),
    )


def event_spec(key: str) -> EventSpec:
    """Look up an event spec; raises KeyError with suggestions."""
    try:
        return EVENTS[key]
    except KeyError:
        close = ", ".join(sorted(k for k in EVENTS if key.split("_")[0] in k)[:5])
        raise KeyError(f"unknown event {key!r}; similar: {close or '<none>'}") from None


# ---------------------------------------------------------------------------
# Node-internal: kernel messages (console log)
# ---------------------------------------------------------------------------
_register(
    "mce",
    LogSource.CONSOLE,
    "kernel",
    Severity.CRITICAL,
    "Machine Check Exception: {count} Bank {bank}: {status}",
    r"^Machine Check Exception: (?P<count>\d+) Bank (?P<bank>\d+): (?P<status>[0-9a-fx]+)$",
    required=("bank", "status"),
    defaults={"count": 1},
)
_register(
    "mce_threshold",
    LogSource.CONSOLE,
    "kernel",
    Severity.ERROR,
    "[Hardware Error]: Machine check events logged on CPU {cpu}: {kind} error threshold exceeded",
    r"^\[Hardware Error\]: Machine check events logged on CPU (?P<cpu>\d+): (?P<kind>\w+) error threshold exceeded$",
    required=("cpu", "kind"),
)
_register(
    "cpu_corruption",
    LogSource.CONSOLE,
    "kernel",
    Severity.CRITICAL,
    "CPU {cpu}: Internal processor error detected, register state corrupt",
    r"^CPU (?P<cpu>\d+): Internal processor error detected, register state corrupt$",
    required=("cpu",),
)
_register(
    "kernel_oops",
    LogSource.CONSOLE,
    "kernel",
    Severity.CRITICAL,
    "BUG: unable to handle kernel paging request at {addr}",
    r"^BUG: unable to handle kernel paging request at (?P<addr>[0-9a-fx]+)$",
    required=("addr",),
)
_register(
    "kernel_bug_at",
    LogSource.CONSOLE,
    "kernel",
    Severity.CRITICAL,
    "kernel BUG at {file}:{line}!",
    r"^kernel BUG at (?P<file>[\w./-]+):(?P<line>\d+)!$",
    required=("file", "line"),
)
_register(
    "kernel_panic",
    LogSource.CONSOLE,
    "kernel",
    Severity.FATAL,
    "Kernel panic - not syncing: {why}",
    r"^Kernel panic - not syncing: (?P<why>.+)$",
    required=("why",),
)
_register(
    "invalid_opcode",
    LogSource.CONSOLE,
    "kernel",
    Severity.CRITICAL,
    "invalid opcode: 0000 [#{n}] SMP in {prog}",
    r"^invalid opcode: 0000 \[#(?P<n>\d+)\] SMP in (?P<prog>[\w./-]+)$",
    required=("prog",),
    defaults={"n": 1},
)
_register(
    "general_protection",
    LogSource.CONSOLE,
    "kernel",
    Severity.CRITICAL,
    "general protection fault: 0000 [#{n}] SMP",
    r"^general protection fault: 0000 \[#(?P<n>\d+)\] SMP$",
    defaults={"n": 1},
)
_register(
    "segfault",
    LogSource.CONSOLE,
    "kernel",
    Severity.ERROR,
    "{prog}[{pid}]: segfault at {addr} ip {ip} sp {sp} error {code}",
    r"^(?P<prog>[\w./-]+)\[(?P<pid>\d+)\]: segfault at (?P<addr>[0-9a-fx]+) ip (?P<ip>[0-9a-fx]+) sp (?P<sp>[0-9a-fx]+) error (?P<code>\d+)$",
    required=("prog", "pid", "addr"),
    defaults={"ip": "0x400f31", "sp": "0x7ffc2a", "code": 4},
)
_register(
    "oom_invoked",
    LogSource.CONSOLE,
    "kernel",
    Severity.WARNING,
    "{prog} invoked oom-killer: gfp_mask=0x{mask}, order={order}, oom_score_adj={adj}",
    r"^(?P<prog>[\w./-]+) invoked oom-killer: gfp_mask=0x(?P<mask>[0-9a-f]+), order=(?P<order>\d+), oom_score_adj=(?P<adj>-?\d+)$",
    required=("prog",),
    defaults={"mask": "201da", "order": 0, "adj": 0},
)
_register(
    "oom_kill",
    LogSource.CONSOLE,
    "kernel",
    Severity.ERROR,
    "Out of memory: Kill process {pid} ({prog}) score {score} or sacrifice child",
    r"^Out of memory: Kill process (?P<pid>\d+) \((?P<prog>[\w./-]+)\) score (?P<score>\d+) or sacrifice child$",
    required=("pid", "prog"),
    defaults={"score": 900},
)
_register(
    "page_alloc_fail",
    LogSource.CONSOLE,
    "kernel",
    Severity.ERROR,
    "{prog}: page allocation failure: order:{order}, mode:0x{mode}",
    r"^(?P<prog>[\w./-]+): page allocation failure: order:(?P<order>\d+), mode:0x(?P<mode>[0-9a-f]+)$",
    required=("prog",),
    defaults={"order": 4, "mode": "201da"},
)
_register(
    "fork_fail",
    LogSource.CONSOLE,
    "kernel",
    Severity.ERROR,
    "fork: retry: Resource temporarily unavailable (attempt {attempt})",
    r"^fork: retry: Resource temporarily unavailable \(attempt (?P<attempt>\d+)\)$",
    defaults={"attempt": 1},
)
_register(
    "hung_task",
    LogSource.CONSOLE,
    "kernel",
    Severity.ERROR,
    'INFO: task {prog}:{pid} blocked for more than {secs} seconds.',
    r"^INFO: task (?P<prog>[\w./-]+):(?P<pid>\d+) blocked for more than (?P<secs>\d+) seconds\.$",
    required=("prog", "pid"),
    defaults={"secs": 120},
)
_register(
    "cpu_stall",
    LogSource.CONSOLE,
    "kernel",
    Severity.ERROR,
    "INFO: rcu_sched self-detected stall on CPU {cpu} (t={ticks} jiffies)",
    r"^INFO: rcu_sched self-detected stall on CPU (?P<cpu>\d+) \(t=(?P<ticks>\d+) jiffies\)$",
    required=("cpu",),
    defaults={"ticks": 60002},
)
_register(
    "call_trace_head",
    LogSource.CONSOLE,
    "kernel",
    Severity.ERROR,
    "Call Trace:",
    r"^Call Trace:$",
)
_register(
    "call_trace_frame",
    LogSource.CONSOLE,
    "kernel",
    Severity.ERROR,
    " [<{addr}>] {func}+0x{off}/0x{size}",
    r"^ \[<(?P<addr>(?:0x)?[0-9a-f]+)>\] (?P<func>[\w.]+)\+0x(?P<off>[0-9a-f]+)/0x(?P<size>[0-9a-f]+)$",
    required=("addr", "func"),
    defaults={"off": "1a2", "size": "4d0"},
)
_register(
    "ecc_corrected",
    LogSource.CONSOLE,
    "kernel",
    Severity.WARNING,
    "EDAC MC{mc}: {count} CE memory error on {dimm}",
    r"^EDAC MC(?P<mc>\d+): (?P<count>\d+) CE memory error on (?P<dimm>[\w#-]+)$",
    required=("dimm",),
    defaults={"mc": 0, "count": 1},
)
_register(
    "ecc_uncorrected",
    LogSource.CONSOLE,
    "kernel",
    Severity.CRITICAL,
    "EDAC MC{mc}: {count} UE memory error on {dimm}",
    r"^EDAC MC(?P<mc>\d+): (?P<count>\d+) UE memory error on (?P<dimm>[\w#-]+)$",
    required=("dimm",),
    defaults={"mc": 0, "count": 1},
)
_register(
    "buffer_overflow",
    LogSource.CONSOLE,
    "kernel",
    Severity.ERROR,
    "detected buffer overflow in {func}",
    r"^detected buffer overflow in (?P<func>[\w.]+)$",
    required=("func",),
)
_register(
    "disk_error",
    LogSource.CONSOLE,
    "kernel",
    Severity.ERROR,
    "blk_update_request: I/O error, dev {dev}, sector {sector}",
    r"^blk_update_request: I/O error, dev (?P<dev>\w+), sector (?P<sector>\d+)$",
    required=("dev", "sector"),
)
_register(
    "gpu_xid",
    LogSource.CONSOLE,
    "kernel",
    Severity.ERROR,
    "NVRM: Xid (PCI:{pci}): {xid}, {detail}",
    r"^NVRM: Xid \(PCI:(?P<pci>[\w:.]+)\): (?P<xid>\d+), (?P<detail>.+)$",
    required=("xid", "detail"),
    defaults={"pci": "0000:02:00"},
)
_register(
    "bios_unknown",
    LogSource.CONSOLE,
    "kernel",
    Severity.WARNING,
    "HEST: type:2; severity:80; class:3; subclass:D; operation: 2",
    r"^HEST: type:2; severity:80; class:3; subclass:D; operation: 2$",
)
_register(
    "node_halt",
    LogSource.CONSOLE,
    "kernel",
    Severity.FATAL,
    "reboot: Power down ({why})",
    r"^reboot: Power down \((?P<why>.+)\)$",
    defaults={"why": "halt"},
)
_register(
    "node_boot",
    LogSource.CONSOLE,
    "kernel",
    Severity.INFO,
    "Linux version {version} (gcc version {gcc}) booting",
    r"^Linux version (?P<version>[\w.-]+) \(gcc version (?P<gcc>[\w.]+)\) booting$",
    defaults={"version": "3.0.101-0.46.1_1.0502.8871", "gcc": "4.3.4"},
)

# ---------------------------------------------------------------------------
# Node-internal: Lustre / DVS / file system (console + messages)
# ---------------------------------------------------------------------------
_register(
    "lustre_error",
    LogSource.CONSOLE,
    "kernel",
    Severity.ERROR,
    "LustreError: {code}: {detail}",
    r"^LustreError: (?P<code>[\d-]+): (?P<detail>.+)$",
    required=("code", "detail"),
)
_register(
    "lbug",
    LogSource.CONSOLE,
    "kernel",
    Severity.FATAL,
    "LustreError: LBUG hit in {func}",
    r"^LustreError: LBUG hit in (?P<func>[\w.]+)$",
    required=("func",),
)
_register(
    "lustre_io_error",
    LogSource.CONSOLE,
    "kernel",
    Severity.ERROR,
    "Lustre: {fs}: I/O error while communicating with {target}",
    r"^Lustre: (?P<fs>\w+): I/O error while communicating with (?P<target>[\w@.-]+)$",
    required=("target",),
    defaults={"fs": "snx11023"},
)
_register(
    "lustre_evicted",
    LogSource.CONSOLE,
    "kernel",
    Severity.ERROR,
    "Lustre: {fs}: client evicted by {target}: rpc timeout",
    r"^Lustre: (?P<fs>\w+): client evicted by (?P<target>[\w@.-]+): rpc timeout$",
    required=("target",),
    defaults={"fs": "snx11023"},
)
_register(
    "inode_error",
    LogSource.CONSOLE,
    "kernel",
    Severity.ERROR,
    "ldiskfs_lookup: deleted inode {ino} referenced in dir {dir}",
    r"^ldiskfs_lookup: deleted inode (?P<ino>\d+) referenced in dir (?P<dir>\d+)$",
    required=("ino",),
    defaults={"dir": 2},
)
_register(
    "dvs_error",
    LogSource.CONSOLE,
    "kernel",
    Severity.ERROR,
    "DVS: file system push error on {path}: {errno}",
    r"^DVS: file system push error on (?P<path>[\w./-]+): (?P<errno>-?\d+)$",
    required=("path",),
    defaults={"errno": -5},
)
_register(
    "page_fault_lock",
    LogSource.CONSOLE,
    "kernel",
    Severity.WARNING,
    "page fault lock contention on {fs} (waited {ms} ms)",
    r"^page fault lock contention on (?P<fs>\w+) \(waited (?P<ms>\d+) ms\)$",
    defaults={"fs": "lustre", "ms": 2000},
)

# ---------------------------------------------------------------------------
# Node-internal: NHC / ALPS application messages (messages log)
# ---------------------------------------------------------------------------
_register(
    "nhc_test_fail",
    LogSource.MESSAGES,
    "nhc",
    Severity.ERROR,
    "node health check FAILED: test {test} rc={rc}",
    r"^node health check FAILED: test (?P<test>[\w.-]+) rc=(?P<rc>\d+)$",
    required=("test",),
    defaults={"rc": 1},
)
_register(
    "nhc_suspect",
    LogSource.MESSAGES,
    "nhc",
    Severity.WARNING,
    "node placed in suspect mode: {why}",
    r"^node placed in suspect mode: (?P<why>.+)$",
    required=("why",),
)
_register(
    "nhc_admindown",
    LogSource.MESSAGES,
    "nhc",
    Severity.CRITICAL,
    "setting node to admindown: {why}",
    r"^setting node to admindown: (?P<why>.+)$",
    required=("why",),
)
_register(
    "app_exit_abnormal",
    LogSource.MESSAGES,
    "apsys",
    Severity.ERROR,
    "apid {apid} exited abnormally with exit code {code} (job {job})",
    r"^apid (?P<apid>\d+) exited abnormally with exit code (?P<code>-?\d+) \(job (?P<job>\d+)\)$",
    required=("apid", "code", "job"),
)
_register(
    "app_exit_normal",
    LogSource.MESSAGES,
    "apsys",
    Severity.INFO,
    "apid {apid} exited with exit code 0 (job {job})",
    r"^apid (?P<apid>\d+) exited with exit code 0 \(job (?P<job>\d+)\)$",
    required=("apid", "job"),
)
_register(
    "proc_killed_epilogue",
    LogSource.MESSAGES,
    "apsys",
    Severity.NOTICE,
    "epilogue killed pid {pid} ({prog}) for job {job}",
    r"^epilogue killed pid (?P<pid>\d+) \((?P<prog>[\w./-]+)\) for job (?P<job>\d+)$",
    required=("pid", "prog", "job"),
)
_register(
    "l0_sysd_mce",
    LogSource.CONSUMER,
    "l0sysd",
    Severity.ERROR,
    "L0_sysd_mce: memory error reported by blade controller bank={bank}",
    r"^L0_sysd_mce: memory error reported by blade controller bank=(?P<bank>\d+)$",
    required=("bank",),
)
_register(
    "ssid_error",
    LogSource.CONSUMER,
    "l0sysd",
    Severity.ERROR,
    "SSID error: stall detected ssid={ssid}",
    r"^SSID error: stall detected ssid=(?P<ssid>\d+)$",
    required=("ssid",),
)
_register(
    "node_shutdown_msg",
    LogSource.CONSUMER,
    "l0sysd",
    Severity.CRITICAL,
    "node shutdown initiated: {why}",
    r"^node shutdown initiated: (?P<why>.+)$",
    required=("why",),
)

# ---------------------------------------------------------------------------
# External: blade controller (BC) health faults (controller log)
# ---------------------------------------------------------------------------
_register(
    "nhf",
    LogSource.CONTROLLER,
    "bc",
    Severity.ERROR,
    "ec_node_heartbeat_fault: node {node} missed heartbeat ({beats} intervals)",
    r"^ec_node_heartbeat_fault: node (?P<node>[\w-]+) missed heartbeat \((?P<beats>\d+) intervals\)$",
    required=("node",),
    defaults={"beats": 3},
)
_register(
    "nvf",
    LogSource.CONTROLLER,
    "bc",
    Severity.CRITICAL,
    "ec_node_voltage_fault: node {node} rail {rail} at {volts}V out of range",
    r"^ec_node_voltage_fault: node (?P<node>[\w-]+) rail (?P<rail>[\w.]+) at (?P<volts>[\d.]+)V out of range$",
    required=("node",),
    defaults={"rail": "VDD_0.9", "volts": "0.71"},
)
_register(
    "bchf",
    LogSource.CONTROLLER,
    "bc",
    Severity.ERROR,
    "ec_bc_heartbeat_fault: blade controller heartbeat missed",
    r"^ec_bc_heartbeat_fault: blade controller heartbeat missed$",
)
_register(
    "ec_l0_failed",
    LogSource.CONTROLLER,
    "bc",
    Severity.CRITICAL,
    "ec_l0_failed: blade controller unresponsive",
    r"^ec_l0_failed: blade controller unresponsive$",
)
_register(
    "sensor_read_fail",
    LogSource.CONTROLLER,
    "bc",
    Severity.WARNING,
    "get sensor reading failed: {sensor}",
    r"^get sensor reading failed: (?P<sensor>[\w.-]+)$",
    required=("sensor",),
)
_register(
    "ecb_fault",
    LogSource.CONTROLLER,
    "bc",
    Severity.CRITICAL,
    "ECB trip: {fet} overcurrent on node {node}",
    r"^ECB trip: (?P<fet>\w+) overcurrent on node (?P<node>[\w-]+)$",
    required=("node",),
    defaults={"fet": "VRM03"},
)
_register(
    "module_health_fault",
    LogSource.CONTROLLER,
    "bc",
    Severity.ERROR,
    "module health fault: {detail}",
    r"^module health fault: (?P<detail>.+)$",
    required=("detail",),
)
_register(
    "ec_node_info_off",
    LogSource.CONTROLLER,
    "bc",
    Severity.NOTICE,
    "ec_node_info: node {node} state change to off",
    r"^ec_node_info: node (?P<node>[\w-]+) state change to off$",
    required=("node",),
)

# ---------------------------------------------------------------------------
# External: cabinet controller (CC) health faults (controller log)
# ---------------------------------------------------------------------------
_register(
    "cab_power_fault",
    LogSource.CONTROLLER,
    "cc",
    Severity.CRITICAL,
    "cabinet power fault: {detail}",
    r"^cabinet power fault: (?P<detail>.+)$",
    required=("detail",),
)
_register(
    "micro_ctl_fault",
    LogSource.CONTROLLER,
    "cc",
    Severity.ERROR,
    "cabinet micro controller fault: code {code}",
    r"^cabinet micro controller fault: code (?P<code>\d+)$",
    defaults={"code": 17},
)
_register(
    "comm_fault",
    LogSource.CONTROLLER,
    "cc",
    Severity.ERROR,
    "communication fault with {which}: timeout",
    r"^communication fault with (?P<which>[\w-]+): timeout$",
    required=("which",),
)
_register(
    "rpm_fault",
    LogSource.CONTROLLER,
    "cc",
    Severity.WARNING,
    "fan RPM fault: fan{fan} rpm={rpm} expected>{expected}",
    r"^fan RPM fault: fan(?P<fan>\d+) rpm=(?P<rpm>\d+) expected>(?P<expected>\d+)$",
    required=("fan", "rpm"),
    defaults={"expected": 2400},
)
_register(
    "cab_sensor_check",
    LogSource.CONTROLLER,
    "cc",
    Severity.WARNING,
    "cabinet sensor check: {sensor} anomalous",
    r"^cabinet sensor check: (?P<sensor>[\w.-]+) anomalous$",
    required=("sensor",),
)

# ---------------------------------------------------------------------------
# External: event router daemon (ERD) stream
# ---------------------------------------------------------------------------
_register(
    "ec_sedc_warning",
    LogSource.ERD,
    "erd",
    Severity.WARNING,
    "ec_sedc_warning src={src} sensor={sensor} value={value} min={min} max={max}",
    r"^ec_sedc_warning src=(?P<src>[\w-]+) sensor=(?P<sensor>[\w.-]+) value=(?P<value>-?[\d.]+) min=(?P<min>-?[\d.]+) max=(?P<max>-?[\d.]+)$",
    required=("src", "sensor", "value", "min", "max"),
)
_register(
    "ec_sedc_data",
    LogSource.ERD,
    "erd",
    Severity.DEBUG,
    "ec_sedc_data src={src} sensor={sensor} value={value}",
    r"^ec_sedc_data src=(?P<src>[\w-]+) sensor=(?P<sensor>[\w.-]+) value=(?P<value>-?[\d.]+)$",
    required=("src", "sensor", "value"),
)
_register(
    "ec_hw_error",
    LogSource.ERD,
    "erd",
    Severity.ERROR,
    "ec_hw_error src={src} detail={detail}",
    r"^ec_hw_error src=(?P<src>[\w-]+) detail=(?P<detail>.+)$",
    required=("src", "detail"),
)
_register(
    "ec_heartbeat_stop",
    LogSource.ERD,
    "erd",
    Severity.CRITICAL,
    "ec_heartbeat_stop src={src}",
    r"^ec_heartbeat_stop src=(?P<src>[\w-]+)$",
    required=("src",),
)
_register(
    "ec_environment",
    LogSource.ERD,
    "erd",
    Severity.WARNING,
    "ec_environment src={src} kind={kind} value={value}",
    r"^ec_environment src=(?P<src>[\w-]+) kind=(?P<kind>[\w.-]+) value=(?P<value>-?[\d.]+)$",
    required=("src", "kind", "value"),
)
_register(
    "link_error",
    LogSource.ERD,
    "erd",
    Severity.ERROR,
    "ec_link_error fabric={fabric} src={src} link={link} detail={detail}",
    r"^ec_link_error fabric=(?P<fabric>[\w-]+) src=(?P<src>[\w-]+) link=(?P<link>[\w:-]+) detail=(?P<detail>.+)$",
    required=("fabric", "src", "link", "detail"),
)
_register(
    "link_failover",
    LogSource.ERD,
    "erd",
    Severity.WARNING,
    "ec_link_failover fabric={fabric} src={src} link={link} status={status}",
    r"^ec_link_failover fabric=(?P<fabric>[\w-]+) src=(?P<src>[\w-]+) link=(?P<link>[\w:-]+) status=(?P<status>\w+)$",
    required=("fabric", "src", "link", "status"),
)

# ---------------------------------------------------------------------------
# Scheduler: Slurm dialect
# ---------------------------------------------------------------------------
_register(
    "slurm_submit",
    LogSource.SCHEDULER,
    "slurmctld",
    Severity.INFO,
    "_slurm_rpc_submit_batch_job JobId={job} InitPrio={prio} usec={usec}",
    r"^_slurm_rpc_submit_batch_job JobId=(?P<job>\d+) InitPrio=(?P<prio>\d+) usec=(?P<usec>\d+)$",
    required=("job",),
    defaults={"prio": 4294, "usec": 312},
)
_register(
    "slurm_start",
    LogSource.SCHEDULER,
    "slurmctld",
    Severity.INFO,
    "sched: Allocate JobId={job} NodeList={nodes} #CPUs={cpus} user={user} app={app}",
    r"^sched: Allocate JobId=(?P<job>\d+) NodeList=(?P<nodes>[\w,-]+) #CPUs=(?P<cpus>\d+) user=(?P<user>\w+) app=(?P<app>[\w./-]+)$",
    required=("job", "nodes", "cpus", "user", "app"),
)
_register(
    "slurm_complete",
    LogSource.SCHEDULER,
    "slurmctld",
    Severity.INFO,
    "_job_complete: JobId={job} WEXITSTATUS {code}",
    r"^_job_complete: JobId=(?P<job>\d+) WEXITSTATUS (?P<code>-?\d+)$",
    required=("job", "code"),
)
_register(
    "slurm_cancel",
    LogSource.SCHEDULER,
    "slurmctld",
    Severity.NOTICE,
    "_slurm_rpc_kill_job: REQUEST_KILL_JOB JobId={job} uid {uid}",
    r"^_slurm_rpc_kill_job: REQUEST_KILL_JOB JobId=(?P<job>\d+) uid (?P<uid>\d+)$",
    required=("job",),
    defaults={"uid": 1001},
)
_register(
    "slurm_timeout",
    LogSource.SCHEDULER,
    "slurmctld",
    Severity.NOTICE,
    "Time limit exhausted for JobId={job}",
    r"^Time limit exhausted for JobId=(?P<job>\d+)$",
    required=("job",),
)
_register(
    "slurm_oom",
    LogSource.SCHEDULER,
    "slurmstepd",
    Severity.ERROR,
    "error: Detected {n} oom-kill event(s) in StepId={job}.0",
    r"^error: Detected (?P<n>\d+) oom-kill event\(s\) in StepId=(?P<job>\d+)\.0$",
    required=("job",),
    defaults={"n": 1},
)
_register(
    "slurm_mem_exceeded",
    LogSource.SCHEDULER,
    "slurmstepd",
    Severity.ERROR,
    "error: Job {job} exceeded memory limit ({used} > {limit}), being killed",
    r"^error: Job (?P<job>\d+) exceeded memory limit \((?P<used>\d+) > (?P<limit>\d+)\), being killed$",
    required=("job", "used", "limit"),
)
_register(
    "slurm_drain",
    LogSource.SCHEDULER,
    "slurmctld",
    Severity.WARNING,
    "drain_nodes: node {node} reason set to: {reason}",
    r"^drain_nodes: node (?P<node>[\w-]+) reason set to: (?P<reason>.+)$",
    required=("node", "reason"),
)
_register(
    "slurm_node_down",
    LogSource.SCHEDULER,
    "slurmctld",
    Severity.ERROR,
    "node {node} not responding, setting DOWN",
    r"^node (?P<node>[\w-]+) not responding, setting DOWN$",
    required=("node",),
)
_register(
    "slurm_requeue",
    LogSource.SCHEDULER,
    "slurmctld",
    Severity.NOTICE,
    "requeue job {job} due to failure of node {node}",
    r"^requeue job (?P<job>\d+) due to failure of node (?P<node>[\w-]+)$",
    required=("job", "node"),
)
_register(
    "slurm_epilog",
    LogSource.SCHEDULER,
    "slurmd",
    Severity.INFO,
    "epilog for job {job} ran for {secs} seconds",
    r"^epilog for job (?P<job>\d+) ran for (?P<secs>\d+) seconds$",
    required=("job",),
    defaults={"secs": 2},
)

# ---------------------------------------------------------------------------
# Scheduler: Torque dialect
# ---------------------------------------------------------------------------
_register(
    "torque_submit",
    LogSource.SCHEDULER,
    "pbs_server",
    Severity.INFO,
    "Job;{job}.sdb;enqueuing into batch, state 1 hop 1",
    r"^Job;(?P<job>\d+)\.sdb;enqueuing into batch, state 1 hop 1$",
    required=("job",),
)
_register(
    "torque_start",
    LogSource.SCHEDULER,
    "pbs_server",
    Severity.INFO,
    "Job;{job}.sdb;Job Run at request of root, nodes={nodes} cpus={cpus} user={user} app={app}",
    r"^Job;(?P<job>\d+)\.sdb;Job Run at request of root, nodes=(?P<nodes>[\w,-]+) cpus=(?P<cpus>\d+) user=(?P<user>\w+) app=(?P<app>[\w./-]+)$",
    required=("job", "nodes", "cpus", "user", "app"),
)
_register(
    "torque_complete",
    LogSource.SCHEDULER,
    "pbs_server",
    Severity.INFO,
    "Job;{job}.sdb;Exit_status={code}",
    r"^Job;(?P<job>\d+)\.sdb;Exit_status=(?P<code>-?\d+)$",
    required=("job", "code"),
)
_register(
    "torque_cancel",
    LogSource.SCHEDULER,
    "pbs_server",
    Severity.NOTICE,
    "Job;{job}.sdb;Job deleted at request of user@{host}",
    r"^Job;(?P<job>\d+)\.sdb;Job deleted at request of user@(?P<host>[\w.-]+)$",
    required=("job",),
    defaults={"host": "login1"},
)
_register(
    "torque_timeout",
    LogSource.SCHEDULER,
    "pbs_mom",
    Severity.NOTICE,
    "Job;{job}.sdb;walltime {used} exceeded limit {limit}",
    r"^Job;(?P<job>\d+)\.sdb;walltime (?P<used>\d+) exceeded limit (?P<limit>\d+)$",
    required=("job", "used", "limit"),
)
_register(
    "torque_mem_exceeded",
    LogSource.SCHEDULER,
    "pbs_mom",
    Severity.ERROR,
    "Job;{job}.sdb;job violates resource utilization policies: mem {used}kb exceeded limit {limit}kb",
    r"^Job;(?P<job>\d+)\.sdb;job violates resource utilization policies: mem (?P<used>\d+)kb exceeded limit (?P<limit>\d+)kb$",
    required=("job", "used", "limit"),
)
_register(
    "torque_node_down",
    LogSource.SCHEDULER,
    "pbs_server",
    Severity.ERROR,
    "Node;{node};node down: no response",
    r"^Node;(?P<node>[\w-]+);node down: no response$",
    required=("node",),
)
_register(
    "torque_requeue",
    LogSource.SCHEDULER,
    "pbs_server",
    Severity.NOTICE,
    "Job;{job}.sdb;Job requeued, node {node} failed",
    r"^Job;(?P<job>\d+)\.sdb;Job requeued, node (?P<node>[\w-]+) failed$",
    required=("job", "node"),
)
_register(
    "torque_epilog",
    LogSource.SCHEDULER,
    "pbs_mom",
    Severity.INFO,
    "Job;{job}.sdb;epilogue completed in {secs}s",
    r"^Job;(?P<job>\d+)\.sdb;epilogue completed in (?P<secs>\d+)s$",
    required=("job",),
    defaults={"secs": 2},
)


# ---------------------------------------------------------------------------
# Compiled per-daemon dispatch
# ---------------------------------------------------------------------------

#: pattern of a named-group *definition* (used to rename inner groups when
#: folding many spec patterns into one alternation)
_GROUP_DEF = re.compile(r"\(\?P<([A-Za-z_]\w*)>")

#: regex metacharacters that terminate a guaranteed literal prefix
_META_CHARS = frozenset("([{?*+|.$^\\")

#: quantifiers that make the *preceding* literal optional/repeated
_QUANTIFIERS = frozenset("?*+{")


def _literal_prefix(pattern: str) -> str:
    """Longest body prefix every match of ``pattern`` must start with.

    Walks the (``^``-anchored) pattern source, accepting plain literals
    and escaped punctuation, and stops at the first construct that is not
    a mandatory literal character.  Used as a C-level ``str.startswith``
    pre-filter, so it must be *sound* (never reject a matchable body) but
    need not be complete.
    """
    i = 1 if pattern.startswith("^") else 0
    out: list[str] = []
    n = len(pattern)
    while i < n:
        ch = pattern[i]
        if ch == "\\":
            if i + 1 < n and not pattern[i + 1].isalnum():
                ch, i = pattern[i + 1], i + 1  # escaped literal punctuation
            else:
                break  # character class like \d -- not a fixed literal
        elif ch in _META_CHARS:
            break
        if i + 1 < n and pattern[i + 1] in _QUANTIFIERS:
            break  # quantified -> this char is not mandatory
        out.append(ch)
        i += 1
    return "".join(out)


class DaemonDispatcher:
    """Single-pass matcher over all of one daemon's event patterns.

    Instead of trying each :class:`EventSpec` pattern in turn, a
    daemon's patterns are folded into alternation regexes, each
    alternative wrapped in a sentinel group::

        (?P<e0>pat0)|(?P<e1>pat1)|...

    Inner named groups are renamed ``g{i}_{name}`` so they stay unique
    across alternatives; the winning alternative is recovered from
    ``match.lastindex`` (the sentinel group closes last, so its group
    number *is* ``lastindex``) and the original attribute names are
    restored through a precomputed ``(name, group_number)`` table.

    Alternatives are ordered longest-template-first with a stable sort --
    exactly the order the old per-spec linear scan probed them in -- and
    every pattern is ``^``-anchored, so an alternation picks the same
    winner the linear scan did (leftmost matchable alternative).

    On top of that sits a literal-prefix dispatch table: with ``k`` the
    shortest mandatory literal prefix over the daemon's prefixed
    patterns, ``body[:k]`` keys a dict of small per-bucket alternations.
    A pattern whose prefix disagrees with the body on those first ``k``
    characters cannot match, so restricting the alternation to the
    bucket (plus the patterns with *no* mandatory prefix, interleaved in
    order) is exact.  A key miss falls back to the no-prefix-only
    alternation -- chatter lines therefore do near-zero regex work --
    and daemons with no prefixed pattern at all keep one full
    alternation.
    """

    __slots__ = ("daemon", "specs", "_klen", "_buckets", "_miss", "_all")

    #: match-table entry: (regex, {sentinel group number: spec position},
    #: {spec position: ((attr name, group number), ...)})
    _Entry = tuple  # documentation alias; entries are plain tuples

    def __init__(self, daemon: str, specs: list[EventSpec]) -> None:
        self.daemon = daemon
        # Longer templates first: more literal text means more specific.
        # Stable sort keeps registration order among equal lengths, like
        # the linear scan's dispatch table did.
        self.specs = tuple(sorted(specs, key=lambda s: -len(s.template)))

        def combine(positions: list[int]):
            """Alternation entry over ``positions`` (in ``specs`` order)."""
            if not positions:
                return None
            parts = []
            for i in positions:
                inner = _GROUP_DEF.sub(
                    lambda m, i=i: f"(?P<g{i}_{m.group(1)}>",
                    self.specs[i].pattern.pattern)
                parts.append(f"(?P<e{i}>{inner})")
            regex = re.compile("|".join(parts))
            index = regex.groupindex
            spec_index = {index[f"e{i}"]: i for i in positions}
            # attribute extraction tables: names and combined group
            # numbers, separated so all values come out of one C-level
            # ``match.group(*numbers)`` call
            groups = {
                i: (
                    tuple(self.specs[i].pattern.groupindex),
                    tuple(index[f"g{i}_{name}"]
                          for name in self.specs[i].pattern.groupindex),
                )
                for i in positions
            }
            return regex, spec_index, groups

        prefixes = [_literal_prefix(s.pattern.pattern) for s in self.specs]
        bare = [i for i, p in enumerate(prefixes) if not p]
        prefixed = [i for i, p in enumerate(prefixes) if p]
        if not prefixed:
            self._klen = 0
            self._buckets = None
            self._miss = None
            self._all = combine(list(range(len(self.specs))))
            return
        self._all = None
        self._klen = min(len(prefixes[i]) for i in prefixed)
        keys: dict[str, list[int]] = {}
        for i in prefixed:
            keys.setdefault(prefixes[i][:self._klen], []).append(i)
        self._buckets = {
            key: combine(sorted(members + bare))
            for key, members in keys.items()
        }
        self._miss = combine(bare)

    def match(self, body: str) -> tuple[EventSpec, dict[str, str]] | None:
        """(spec, attrs) for the winning pattern, or None for chatter."""
        buckets = self._buckets
        if buckets is None:
            entry = self._all
        else:
            entry = buckets.get(body[: self._klen], self._miss)
            if entry is None:
                return None
        regex, spec_index, groups = entry
        m = regex.match(body)
        if m is None:
            return None
        i = spec_index[m.lastindex]
        names, numbers = groups[i]
        if len(numbers) > 1:
            values = m.group(*numbers)
            if None in values:  # optional group that did not participate
                attrs = {n: v for n, v in zip(names, values) if v is not None}
            else:
                attrs = dict(zip(names, values))
        elif numbers:
            value = m.group(numbers[0])
            attrs = {} if value is None else {names[0]: value}
        else:
            attrs = {}
        return self.specs[i], attrs


# ---------------------------------------------------------------------------
# Registration as the default platform catalog
# ---------------------------------------------------------------------------
#: daemon tag -> source for chatter lines (scheduler daemons fall through
#: to the catalog's default source)
DAEMON_SOURCES: dict[str, LogSource] = {
    "kernel": LogSource.CONSOLE,
    "nhc": LogSource.MESSAGES,
    "apsys": LogSource.MESSAGES,
    "l0sysd": LogSource.CONSUMER,
    "bc": LogSource.CONTROLLER,
    "cc": LogSource.CONTROLLER,
    "erd": LogSource.ERD,
}

from repro.logs.catalogs import (  # noqa: E402
    PlatformCatalog,
    compile_dispatchers,
    register_catalog,
)

#: the Cray XC vocabulary as a first-class catalog; its dispatchers are
#: compiled once here, at import, and shared by every LineParser
CRAY_XC = register_catalog(
    PlatformCatalog(
        name="cray-xc",
        description=(
            "Cray XC console/messages/consumer/controller/ERD/scheduler "
            "vocabulary (the paper's Tables II-IV); the default dialect"
        ),
        events=EVENTS,
        dispatchers=compile_dispatchers(EVENTS),
        daemon_sources=DAEMON_SOURCES,
        default_source=LogSource.SCHEDULER,
    )
)
