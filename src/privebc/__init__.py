"""Differentially private two-party egocentric betweenness centrality.

Two data holders split a graph's nodes; each sees its own internal
edges plus the shared cross edges. The protocol lets party X estimate
the egocentric betweenness of one of its nodes with edge differential
privacy against the other party: X releases a perturbed neighbour set
by per-node randomized response (the exponential mechanism's law), Y
answers with 2-path counts and a partial sum under exact two-sided
geometric noise, and X assembles the estimate. See README.md for the CLI and experiment harness.

Each release has one implementation, which the session runs. The
two-stage stand-ins that perfbench's trace calls by name stay in their
modules and out of __all__; the brute-force references of the checks,
the stratum law's pmf among them, live in `privebc.oracle`, which no
session imports.
"""

from .backward import BackwardMsg, DegenerateEgoError
from .dpnum import DEFAULT_CONTEXT, PrivacyParams  # DEFAULT_CONTEXT: read by perfbench's trace
from .forward import ForwardMsg, forward_message
from .graphs import (
    EgoContext,
    Graph,
    GraphParseError,
    LoadReport,
    PartitionedGraph,
    PartyView,
    UnknownNodeError,
    WrongPartyError,
    ego_context,
    exact_ebc,
    load_edge_list,
    partition_nodes,
)
from .protocol import (
    ALL_MECHS,
    BudgetLedger,
    DecodeError,
    EbcAccumulator,
    HandshakeError,
    ProtocolConfig,
    ProtocolError,
    SessionResult,
    decode_msg,
    encode_msg,
    nonprivate_ebc_protocol,
    private_ebc,
    run_session,
    run_two_process,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_MECHS",
    "BackwardMsg",
    "BudgetLedger",
    "DecodeError",
    "DegenerateEgoError",
    "EbcAccumulator",
    "EgoContext",
    "ForwardMsg",
    "Graph",
    "GraphParseError",
    "HandshakeError",
    "LoadReport",
    "PartitionedGraph",
    "PartyView",
    "PrivacyParams",
    "ProtocolConfig",
    "ProtocolError",
    "SessionResult",
    "UnknownNodeError",
    "WrongPartyError",
    "decode_msg",
    "ego_context",
    "encode_msg",
    "exact_ebc",
    "forward_message",
    "load_edge_list",
    "nonprivate_ebc_protocol",
    "partition_nodes",
    "private_ebc",
    "run_session",
    "run_two_process",
    "__version__",
]
