"""A CORBA-like Object Request Broker over the simulated network.

The paper builds CORBA-LC directly on CORBA 2.x ("use CORBA 2 standard,
mature IDL compilers and tools", §2.1.2).  Since no ORB is available in
this offline environment, this package implements the CORBA semantics
the component model needs, from scratch:

- :mod:`repro.orb.typecodes` / :mod:`repro.orb.cdr` — TypeCodes and
  byte-accurate CDR marshalling (message sizes on the simulated wire are
  the real encoded sizes).
- :mod:`repro.orb.ior` — interoperable object references.
- :mod:`repro.orb.giop` — GIOP-style request/reply framing.
- :mod:`repro.orb.model` / :mod:`repro.orb.interception` — the
  interface model and the interceptor contract, below the runtime.
- :mod:`repro.orb.core` — the ORB: assembly plus the requester role;
  :mod:`repro.orb.listener` (admission, dispatch, replies; servants
  dispatch inside the simulation, charging per-operation CPU cost scaled
  by the host's power), :mod:`repro.orb.channels` (oneway pipelining)
  and :mod:`repro.orb.poa` (object adapters) are what it assembles.
- :mod:`repro.orb.dii` — interface repository + dynamic invocation.
- :mod:`repro.orb.services` — push-model event channels (the substrate
  for component event ports).
"""

from repro.orb.exceptions import (
    BAD_OPERATION,
    BAD_PARAM,
    COMM_FAILURE,
    INTERNAL,
    INV_OBJREF,
    MARSHAL,
    NO_IMPLEMENT,
    NO_RESOURCES,
    OBJECT_NOT_EXIST,
    TIMEOUT,
    TRANSIENT,
    UNKNOWN,
    SystemException,
    UserException,
)
from repro.orb.typecodes import TypeCode, TCKind
from repro.orb.ior import IOR
from repro.orb.core import ORB, Servant, OperationDef, ParamDef, InterfaceDef
from repro.orb.poa import POA

__all__ = [
    "SystemException",
    "UserException",
    "UNKNOWN",
    "BAD_PARAM",
    "BAD_OPERATION",
    "NO_IMPLEMENT",
    "COMM_FAILURE",
    "OBJECT_NOT_EXIST",
    "TRANSIENT",
    "TIMEOUT",
    "INV_OBJREF",
    "MARSHAL",
    "NO_RESOURCES",
    "INTERNAL",
    "TypeCode",
    "TCKind",
    "IOR",
    "ORB",
    "POA",
    "Servant",
    "OperationDef",
    "ParamDef",
    "InterfaceDef",
]
