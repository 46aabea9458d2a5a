"""Seeded machine descriptions for the benchmark: the broker_n family.

`broker_text(n)` writes a broker that offers a block of shares to n clients.
Every offer and a timeout are issued at the start; a first positive reply
that is not simultaneous with another positive reply wins the sale, any
simultaneous pair of positive replies issues a tie-break query whose reply
names the buyer, and `no_sale` / `expired` end the step without a sale.  With
`preferred=True` a simultaneous pair of positive replies is final at once and
the lowest-numbered client among them buys, which is not equivalent to the
tie-break broker.  For n = 2 the two texts are equivalent to the shipped
`specs/broker.isa` and `specs/broker_preferred.isa`.

`disguise(text, rng, tag)` renames the algorithm and every rule and shuffles
the rule order.  The result means the same machine, but it is a new spec
value, so no memo entry keyed on a spec carries over from one op to the next.
The seed only ever picks names and orders, never sizes.
"""

from __future__ import annotations

import random
import re

_RULE = re.compile(r"^(issue|final|update) ([A-Za-z_][A-Za-z0-9_]*):")
_ALGORITHM = re.compile(r"^algorithm [A-Za-z_][A-Za-z0-9_]*$", re.M)


def _yes(i: int) -> str:
    return f"reply(offer{i}) = yes()"


def _tie(i: int, j: int) -> str:
    return f"{_yes(i)} and {_yes(j)} and simultaneous(offer{i}, offer{j})"


def _any(parts: list[str]) -> str:
    return parts[0] if len(parts) == 1 else " or ".join(f"({p})" for p in parts)


def broker_text(n: int, *, preferred: bool = False) -> str:
    """The canonical broker_n description (n >= 2), rules in a fixed order."""
    if n < 2:
        raise ValueError("broker_n needs at least two clients")
    clients = [f"client{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    lines = [f"algorithm broker_{n}{'_preferred' if preferred else ''}", "", "vocabulary {"]
    lines += [f"  static {c}/0" for c in clients]
    lines += ["  static no/0", "  static yes/0", "  dynamic owner/0", "}", ""]
    lines += ["labels { choose " + " ".join(f"offer{i}" for i in range(n)) + " timeout }", ""]
    lines += ["state X0 {", "  base " + " ".join(sorted([*clients, "false", "no", "t", "true", "undef", "yes"]))]
    lines += [f"  interp {c} () = {c}" for c in clients]
    lines += ["  interp no () = no", "  interp yes () = yes", "}", "", "initial X0", ""]
    lines += ["query choose = (choose)"] + [f"query offer{i} = (offer{i})" for i in range(n)]
    lines += ["query timeout = (timeout)", ""]

    rules = [f"issue ask{i}: when start emit (offer{i})" for i in range(n)]
    rules.append("issue ask_clock: when start emit (timeout)")
    if not preferred:
        rules.append(f"issue tie: when {_any([_tie(i, j) for i, j in pairs])} emit (choose)")
    for i in range(n):
        rivals = [_tie(*sorted((i, j))) for j in range(n) if j != i]
        rules.append(f"final sale{i}: when {_yes(i)} and not ({_any(rivals)}) succeed")
    if preferred:
        rules.append(f"final tie_preferred: when {_any([_tie(i, j) for i, j in pairs])} succeed")
    else:
        rules.append("final sale_choice: when answered(choose) succeed")
    rules.append("final no_sale: when " + " and ".join(f"reply(offer{i}) = no()" for i in range(n)) + " succeed")
    rules.append(
        "final expired: when answered(timeout)"
        + "".join(f" and not {_yes(i)}" for i in range(n))
        + " succeed"
    )
    for i in range(n):
        others = "".join(f" and not {_yes(j)}" for j in range(n) if j != i)
        rules.append(f"update sell{i}: when {_yes(i)}{others} owner() := client{i}()")
    for i in range(n):
        for j in range(n):
            if i != j:
                rules.append(
                    f"update sell{i}_before{j}: when {_yes(i)} and {_yes(j)} and before(offer{i}, offer{j})"
                    f" owner() := client{i}()"
                )
    if not preferred:
        rules.append("update sell_choice: when answered(choose) owner() := reply(choose)")
    else:
        for i in range(n - 1):
            later = _any([_tie(i, k) for k in range(i + 1, n)])
            earlier = "".join(f" and not ({_tie(k, i)})" for k in range(i))
            rules.append(f"update sell_tie{i}: when ({later}){earlier} owner() := client{i}()")
    lines += rules
    lines += ["", "bounds {", "  max_query_len 1", f"  max_issued {n + 3}", "}", ""]
    lines.append("witness { " + " ; ".join(f"{c}()" for c in [*clients, "no", "yes"]) + " }")
    return "\n".join(lines) + "\n"


def disguise(text: str, rng: random.Random, tag: str) -> str:
    """Rename the algorithm to `<tag>_<random>` and every rule, and shuffle the rules.

    Rules must each sit on one line, as in the shipped specs and in
    `broker_text`.  The shuffled rules take the place of the first rule.
    """
    lines = text.splitlines()
    rule_at = [k for k, line in enumerate(lines) if _RULE.match(line)]
    rules = [lines[k] for k in rule_at]
    rng.shuffle(rules)
    renamed = [
        _RULE.sub(lambda m, k=k: f"{m.group(1)} r{k}_{rng.getrandbits(24):06x}:", rule, count=1)
        for k, rule in enumerate(rules)
    ]
    taken = set(rule_at)
    first = rule_at[0] if rule_at else len(lines)
    out = lines[:first] + renamed + [line for k, line in enumerate(lines) if k > first and k not in taken]
    name = f"{tag}_{rng.getrandbits(32):08x}"
    out_text = "\n".join(out) + "\n"
    out_text, count = _ALGORITHM.subn(f"algorithm {name}", out_text, count=1)
    if count != 1:
        raise ValueError("text has no `algorithm NAME` line")
    return out_text
