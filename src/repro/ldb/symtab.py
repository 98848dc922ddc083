"""ldb's view of PostScript symbol tables (paper Sec. 2).

Wraps the top-level dictionary built by interpreting the loader table:
maps program counters to procedure entries (via the procs array),
resolves names by walking the uplink tree and then the statics and
externs dictionaries, finds stopping points by source location, and
*forces* lazily-evaluated values — ``where`` procedures, deferred
strings — replacing them with their results so each is interpreted at
most once per entry (Sec. 5, 7).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..postscript import (
    Interp,
    Location,
    PSArray,
    PSDict,
    PSError,
    String,
    is_executable,
)


class SymbolTable:
    """The program's top-level dictionary plus lookup machinery."""

    def __init__(self, interp: Interp, toplevel: PSDict, target=None):
        self.interp = interp
        self.toplevel = toplevel
        self.target = target  # supplies the dictionaries forcing needs
        self.architecture = toplevel["architecture"].text
        self._proc_addr_map: Optional[Dict[int, PSDict]] = None

    # -- forcing -----------------------------------------------------------

    def force(self, entry: PSDict, key: str):
        """Get ``entry[key]``, executing a deferred procedure once.

        Attempts to execute a literal object push it back, so procedures
        interpreted at most once are replaced by their results (Sec. 5).
        """
        value = entry[key]
        if isinstance(value, (PSArray, String)) and is_executable(value):
            value = self._execute(value)
            entry[key] = value
        return value

    def _execute(self, proc):
        interp = self.interp
        pushed = 0
        if self.target is not None:
            for d in self.target.eval_dicts():
                interp.push_dict(d)
                pushed += 1
        try:
            depth = len(interp.ostack)
            interp.call(proc)
            if len(interp.ostack) <= depth:
                raise PSError("stackunderflow", "deferred value produced nothing")
            return interp.pop()
        finally:
            for _ in range(pushed):
                interp.pop_dict_stack()

    # -- procedures -------------------------------------------------------------

    def procs(self) -> List[PSDict]:
        return list(self.toplevel["procs"])

    def proc_address(self, entry: PSDict) -> int:
        """The procedure's code address (forces the where value)."""
        where = self.force(entry, "where")
        if isinstance(where, Location):
            return where.offset
        if isinstance(where, (int,)):
            return where
        raise PSError("typecheck", "procedure where is %r" % (where,))

    def proc_entry_for_pc(self, pc: int) -> Optional[PSDict]:
        """Map a pc to the symbol-table entry of its procedure.

        ldb uses the procs array to build a table mapping procedure
        addresses to entries; mapping the pc to a procedure address is
        the linker interface's job (Sec. 2).
        """
        if self._proc_addr_map is None:
            # published only once complete: a where that fails to force
            # must fail the next lookup too, not leave procedures unmapped
            self._proc_addr_map = {self.proc_address(entry): entry
                                   for entry in self.procs()}
        if self.target is not None:
            hit = self.target.linker.proc_containing(pc)
            if hit is None:
                return None
            address = hit[0]
            entry = self._proc_addr_map.get(address)
            return entry
        # without a linker, fall back to a scan
        best = None
        best_addr = -1
        for address, entry in self._proc_addr_map.items():
            if address <= pc and address > best_addr:
                best, best_addr = entry, address
        return best

    def extern_entry(self, name: str) -> Optional[PSDict]:
        return self.toplevel["externs"].get(name)

    # -- stopping points ----------------------------------------------------------

    def loci(self, proc_entry: PSDict) -> List[PSDict]:
        """The stopping points; deferred arrays are forced on first use
        and replaced with their results (Sec. 5)."""
        return list(self.force(proc_entry, "loci"))

    def stop_address(self, stop: PSDict) -> Optional[int]:
        where = None
        if "where" in stop:
            value = stop["where"]
            if isinstance(value, (PSArray, String)) and is_executable(value):
                value = self._execute(value)
                stop["where"] = value
            where = value
        if isinstance(where, Location):
            return where.offset
        return where if isinstance(where, int) else None

    def stop_for_pc(self, proc_entry: PSDict, pc: int) -> Optional[Tuple[int, PSDict]]:
        """The stopping point at (or nearest at-or-before) ``pc``."""
        best: Optional[Tuple[int, PSDict]] = None
        best_addr = -1
        for index, stop in enumerate(self.loci(proc_entry)):
            address = self.stop_address(stop)
            if address is None:
                continue
            if address <= pc and address > best_addr:
                best, best_addr = (index, stop), address
        return best

    def stops_for_line(self, filename: str, line: int) -> List[Tuple[PSDict, PSDict]]:
        """All stopping points at a source line (there can be several —
        the C preprocessor can put multiple stops on one line, Sec. 2).

        Returns (procedure entry, stop) pairs.
        """
        out: List[Tuple[PSDict, PSDict]] = []
        sourcemap = self.toplevel["sourcemap"]
        entries = sourcemap.get(filename)
        if entries is None:
            return out
        for proc_entry in entries:
            for stop in self.loci(proc_entry):
                if stop["sourcey"] == line:
                    out.append((proc_entry, stop))
        return out

    def first_stop_of(self, proc_entry: PSDict) -> Optional[PSDict]:
        loci = self.loci(proc_entry)
        return loci[0] if loci else None

    # -- name resolution -------------------------------------------------------------

    def resolve(self, name: str, stop: Optional[PSDict],
                proc_entry: Optional[PSDict]) -> Optional[PSDict]:
        """Resolve a name from a stopping point's context (Sec. 2).

        Walk up the tree of local entries from the stopping point's
        symbol; at the root search the procedure's statics, then the
        program's externs.
        """
        if stop is not None:
            entry = stop.get("syms")
            while entry is not None:
                if entry["name"].text == name:
                    return entry
                entry = entry.get("uplink")
        if proc_entry is not None:
            statics = proc_entry.get("statics")
            if statics is not None and name in statics:
                return statics[name]
        return self.extern_entry(name)

    # -- values ---------------------------------------------------------------------

    def location_of(self, entry: PSDict) -> Location:
        where = self.force(entry, "where")
        if not isinstance(where, Location):
            raise PSError("typecheck", "where of %s is %r"
                          % (entry["name"].text, where))
        return where

    def type_of(self, entry: PSDict) -> PSDict:
        return entry["type"]

    def decl_of(self, entry: PSDict) -> str:
        pattern = self.type_of(entry)["decl"].text
        name = entry["name"].text
        return pattern.replace("%s", name) if "%s" in pattern \
            else "%s %s" % (pattern, name)
