"""The packet filter itself — the paper's primary contribution.

Layered exactly as the paper describes it:

* the **language** (:mod:`.instructions`, :mod:`.program`) — figure 3-6;
* the **interpreter** (:mod:`.interpreter`) with the section 4 runtime
  checks, plus the section 7 fast paths (:mod:`.validator`, :mod:`.jit`,
  :mod:`.decision`) and language extensions (:mod:`.extensions`);
* the **compiler library** (:mod:`.compiler`) that user code builds
  filters with;
* the **demultiplexer** (:mod:`.demux`, :mod:`.port`) — figure 4-1 and
  the section 3.2/3.3 port machinery;
* the **device** (:mod:`.device`, :mod:`.ioctl`) that exposes it all as
  a character special device inside the simulated kernel.
"""

from .compiler import And, Expr, Field, Or, Test, compile_expr, word
from .decision import DecisionTable, necessary_equalities
from .demux import DeliveryReport, Engine, PacketFilterDemux
from .flowcache import FlowCache
from .instructions import (
    BinaryOp,
    EncodingError,
    Instruction,
    StackAction,
    pushword,
)
from .interpreter import (
    FaultCode,
    FilterResult,
    LanguageLevel,
    ShortCircuitMode,
    evaluate,
)
from .ioctl import DataLinkInfo, PFIoctl, PortStatus
from .irgen import FusedEntry
from .jit import CompiledFilter, compile_filter
from .library import (
    ethertype_filter,
    ip_conversation_filter,
    ip_host_filter,
    ip_protocol_filter,
    tcp_port_filter,
    udp_port_filter,
)
from .paper_filters import (
    figure_3_8_pup_type_range,
    figure_3_9_pup_socket_35,
    pup_socket_filter,
)
from .port import DeliveredPacket, Port, ReadTimeoutPolicy
from .program import FilterProgram, asm
from .trace import EvaluationTrace, TraceStep, trace_evaluation
from .validator import ValidationError, ValidationReport, validate

__all__ = [
    # language
    "Instruction", "StackAction", "BinaryOp", "pushword", "EncodingError",
    "FilterProgram", "asm",
    # evaluation
    "evaluate", "FilterResult", "FaultCode", "ShortCircuitMode",
    "LanguageLevel",
    # bind-time machinery
    "validate", "ValidationError", "ValidationReport",
    "compile_filter", "CompiledFilter",
    "DecisionTable", "necessary_equalities",
    "FusedEntry", "FlowCache",
    # compiler library
    "word", "compile_expr", "Field", "Test", "And", "Or", "Expr",
    # demux + ports
    "PacketFilterDemux", "DeliveryReport", "Engine",
    "Port", "DeliveredPacket", "ReadTimeoutPolicy",
    # device surface
    "PFIoctl", "DataLinkInfo", "PortStatus",
    # paper examples
    "figure_3_8_pup_type_range", "figure_3_9_pup_socket_35",
    "pup_socket_filter",
    # filter library & debugging
    "ethertype_filter", "ip_protocol_filter", "ip_host_filter",
    "udp_port_filter", "tcp_port_filter", "ip_conversation_filter",
    "trace_evaluation", "EvaluationTrace", "TraceStep",
]
