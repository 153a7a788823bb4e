"""Cross-launch gang formation: coalesce and demultiplex.

The four flat media kernels (AlphaBlend, BOB, ADVDI, ProcAmp) launch a
*single* shred per request at smoke geometry, so the gang tier never
engages for them — one lane is not a gang.  Under serving load, though,
many requests for the same kernel sit queued together.  The coalescer
merges same-program single-launch requests from one session into one
device batch; the firmware's existing ``gang_eligible`` check then sees
N same-program shreds and runs them in lockstep, with the congruent-
surface extension (:func:`repro.gma.gang._gang_surface`) handling each
request's distinct-but-identically-shaped surfaces via per-lane base
deltas.

Determinism scope: coalescing never crosses sessions (a device binds one
tenant's space and exoskeleton per drain), never reorders one session's
requests past each other in a batch (queue order is preserved), and the
demux hands every request exactly the :class:`~repro.gma.interpreter.
ShredRun` records its own shreds produced — bit-identical payloads and
counters to a solo run, because the megaop engine itself is bit-identical
to the scalar interpreter.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..errors import ServingError
from ..gma.firmware import GmaRunResult


def coalescable(head, other) -> bool:
    """May ``other`` join ``head``'s device batch as extra gang lanes?

    Mirrors :func:`repro.gma.gang.gang_eligible`'s launch-shape
    conditions: the *same program object* (predecode identity — sessions
    get this by building each kernel's program once), same entry point,
    and no cross-shred dependencies.  Same-session is implied: the
    admission controller only coalesces within one session's queue.
    """
    if other.session is not head.session:
        return False
    if not head.shreds or not other.shreds:
        return False
    program = head.shreds[0].program
    entry = head.shreds[0].entry
    for shred in list(head.shreds) + list(other.shreds):
        if shred.program is not program or shred.entry != entry:
            return False
        if shred.depends_on:
            return False
    return True


def demux(requests: Sequence, merged: GmaRunResult) -> Dict[int, List]:
    """Split a coalesced batch's runs back out per request.

    Returns ``{request.ident: [ShredRun, ...]}`` in the merged result's
    retirement order.  Shreds spawned on-device attribute to the request
    that owns their ancestor (``parent_id`` chains upward).

    Attribution is resolved against the *complete* run list, not in
    retirement order: under a gang drain a spawned child can retire
    before its parent (children queue behind the whole gang, but a
    multi-sub-batch drain or nested spawns interleave generations), so a
    single forward walk that assumes parent-before-child misattributes
    or outright fails on exactly the coalesced nested-spawn batches the
    coalescer exists for.
    """
    # pass 1: every shred that ran, by id -> its parent (None for roots)
    parent: Dict[int, object] = {}
    for run in merged.runs:
        parent[run.shred.shred_id] = run.shred.parent_id
    owner: Dict[int, int] = {}
    for request in requests:
        for shred in request.shreds:
            owner[shred.shred_id] = request.ident

    def resolve(shred_id: int) -> int:
        ident = owner.get(shred_id)
        if ident is not None:
            return ident
        chain = []
        node = shred_id
        while node is not None and node not in owner:
            if node in chain:
                raise ServingError(
                    f"parent_id cycle at shred {node} while attributing "
                    f"shred {shred_id}")
            chain.append(node)
            node = parent.get(node)
        if node is None:
            raise ServingError(
                f"cannot attribute shred {shred_id} to a request")
        ident = owner[node]
        for walked in chain:  # memoize the whole chain
            owner[walked] = ident
        return ident

    # pass 2: attribute every run, preserving retirement order
    out: Dict[int, List] = {request.ident: [] for request in requests}
    for run in merged.runs:
        out[resolve(run.shred.shred_id)].append(run)
    return out
