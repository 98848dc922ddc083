"""Control operators: exec, if, loops, exit, stop, stopped, bind.

``stopped`` is load-bearing in ldb: the debugger applies ``cvx stopped``
to a reader of the expression server's answer, interpreting its
PostScript until the server's final ``ExpressionServer.result`` executes
``stop`` (paper Sec. 3).
"""

from __future__ import annotations

from .objects import Name, Operator, PSArray, PSError, PSExit, PSStop


def op_exec(interp) -> None:
    interp.execute(interp.pop())


def op_if(interp) -> None:
    proc = interp.pop()
    condition = interp.pop_bool()
    if condition:
        interp.call(proc)


def op_ifelse(interp) -> None:
    proc_false = interp.pop()
    proc_true = interp.pop()
    condition = interp.pop_bool()
    interp.call(proc_true if condition else proc_false)


def op_for(interp) -> None:
    proc = interp.pop()
    limit = interp.pop_number()
    step = interp.pop_number()
    start = interp.pop_number()
    if step == 0:
        raise PSError("rangecheck", "for with zero step")
    control = start
    try:
        if step > 0:
            while control <= limit:
                interp.push(control)
                interp.call(proc)
                control += step
        else:
            while control >= limit:
                interp.push(control)
                interp.call(proc)
                control += step
    except PSExit:
        pass


def op_repeat(interp) -> None:
    proc = interp.pop()
    n = interp.pop_int()
    if n < 0:
        raise PSError("rangecheck", "repeat %d" % n)
    try:
        for _ in range(n):
            interp.call(proc)
    except PSExit:
        pass


def op_loop(interp) -> None:
    proc = interp.pop()
    try:
        while True:
            interp.call(proc)
    except PSExit:
        pass


def op_exit(interp) -> None:
    raise PSExit()


def op_stop(interp) -> None:
    raise PSStop()


def op_stopped(interp) -> None:
    interp.push(interp.stopped_call(interp.pop()))


def op_bind(interp) -> None:
    """Replace executable names bound to operators with the operators."""
    proc = interp.peek()
    if isinstance(proc, PSArray):
        _bind_body(interp, proc)


def _bind_body(interp, proc: PSArray) -> None:
    for i, element in enumerate(proc.items):
        if isinstance(element, Name) and not element.literal:
            try:
                value = interp.lookup(element.text)
            except PSError:
                continue
            if isinstance(value, Operator):
                proc.items[i] = value
        elif isinstance(element, PSArray) and not element.literal:
            _bind_body(interp, element)


def install(interp) -> None:
    interp.defop("exec", op_exec)
    interp.defop("if", op_if)
    interp.defop("ifelse", op_ifelse)
    interp.defop("for", op_for)
    interp.defop("repeat", op_repeat)
    interp.defop("loop", op_loop)
    interp.defop("exit", op_exit)
    interp.defop("stop", op_stop)
    interp.defop("stopped", op_stopped)
    interp.defop("bind", op_bind)
