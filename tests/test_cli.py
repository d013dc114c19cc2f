import json
import random

from dmfv.cli import main
from dmfv.diag import format_report
from dmfv.fluidics import verify_program
from dmfv.isa import parse_program

from conftest import FIXTURES, load


def fx(name: str) -> str:
    return str(FIXTURES / name)


def test_verify_pass_exit_zero(capsys):
    rc = main(["verify", fx("pcr.dmf"), "--sg", fx("pcr.sg")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "t=34" in out


def test_verify_cli_equals_library(capsys):
    rc = main(["verify", fx("twowaymix.dmf")])
    out = capsys.readouterr().out
    _, report = verify_program(parse_program(load("twowaymix.dmf")))
    assert rc == 0
    assert out == format_report(report, "text")


def test_verify_injected_program_exit_one(tmp_path, capsys):
    rc = main(["inject", fx("pcr.dmf"), "--error", "e3",
               "-o", str(tmp_path / "pcr_e3.dmf")])
    assert rc == 0
    capsys.readouterr()
    rc = main(["verify", str(tmp_path / "pcr_e3.dmf")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "e3" in out and "d(2,1)" in out and "t=1" in out


def test_verify_json_format(capsys):
    rc = main(["verify", fx("twowaymix.dmf"), "--sg", fx("twowaymix.sg"),
               "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["ok"] is True and doc["final_t"] == 36


def test_verify_event_log(tmp_path, capsys):
    log = tmp_path / "events.log"
    rc = main(["verify", fx("twowaymix.dmf"), "--events", str(log)])
    assert rc == 0
    lines = log.read_text().splitlines()
    assert any(line.startswith("17\tmix-done\tv1") for line in lines)
    assert any("output" in line and "(5,1)" in line for line in lines)


def test_verify_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.dmf"
    bad.write_text("dim(2,2)\naccuracy 1\nR(1,1,S)\n1 zzz\n")
    rc = main(["verify", str(bad)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_verify_all_paths(capsys):
    rc = main(["verify", fx("recovery.dmf"), "--sg", fx("recovery.sg"),
               "--all-paths"])
    out = capsys.readouterr().out
    assert rc == 0 and "PASS" in out
    assert out.count("path ") == 4      # one report row per execution path
    assert "path 11: PASS, ends t=69" in out


def test_verify_single_path(capsys):
    rc = main(["verify", fx("recovery.dmf"), "--path", "11"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_path_label_on_linear_program(capsys):
    rc = main(["verify", fx("pcr.dmf"), "--path", "10"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "no path labeled '10'" in captured.err
    # the one path of a conditional-free program has the empty label
    assert main(["verify", fx("pcr.dmf"), "--path", ""]) == 0


def test_verify_pins_mode(capsys):
    rc = main(["verify", fx("mplex.dmf"), "--pins", fx("mplex_pin3.pins")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "Droplet stuck on (13,11)" in out and "t=56" in out


def test_paths_listing(capsys):
    rc = main(["paths", fx("recovery.dmf")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "path 11" in out and "ends at t=69" in out
    assert out.count("path ") == 4


def test_graph_dot_output(capsys):
    rc = main(["graph", fx("twowaymix.dmf")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("digraph") and '"v2" -> "O"' in out


def test_render_mixer_span_at_t4(capsys):
    rc = main(["render", fx("twowaymix.dmf"), "--at", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "t=4" in out
    row3 = out.splitlines()[3]          # header line + rows 1..; row 3 of the grid
    assert row3.startswith("M = = M")   # 1x4 mixer spanning (3,1)..(3,4)


def test_render_t0_empty_grid(capsys):
    rc = main(["render", fx("twowaymix.dmf"), "--at", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "R . . R" in out and "O . . W" in out and "D" not in out.split("t=0")[1]


def test_render_animate_pcr(tmp_path, capsys):
    out_file = tmp_path / "frames.txt"
    rc = main(["render", fx("pcr.dmf"), "--animate", "-o", str(out_file)])
    assert rc == 0
    body = out_file.read_text()
    assert body.count("t=") == 34       # one frame per tick
    assert "mix (5,5)..(5,8) [27,34]" in body
    assert "mix (4,3)..(7,3) [5,12]" in body


def test_render_stops_at_violation(tmp_path, capsys):
    rc = main(["inject", fx("pcr.dmf"), "--error", "e4",
               "-o", str(tmp_path / "pcr_e4.dmf")])
    capsys.readouterr()
    rc = main(["render", str(tmp_path / "pcr_e4.dmf"), "--at", "34"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "violation at t=28" in captured.err


def test_render_svg(tmp_path):
    out_file = tmp_path / "frame.svg"
    rc = main(["render", fx("twowaymix.dmf"), "--at", "4", "--svg",
               "-o", str(out_file)])
    assert rc == 0
    assert out_file.read_text().startswith("<svg")


def test_inject_pin_companion_file(tmp_path, capsys):
    rc = main(["inject", fx("mplex.dmf"), "--error", "pin",
               "--pins", fx("mplex.pins"), "--remap", "13,5=6",
               "-o", str(tmp_path / "remap.pins")])
    assert rc == 0
    written = (tmp_path / "remap.pins").read_text()
    assert written == load("mplex_pin1.pins")


def test_inject_inapplicable_exit_two(tmp_path, capsys):
    empty = tmp_path / "empty.dmf"
    empty.write_text("dim(3,3)\naccuracy 1\nR(1,1,S)\n0 end\n")
    rc = main(["inject", str(empty), "--error", "e5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


_SG_PAIRS = (("twowaymix.dmf", "twowaymix.sg"), ("pcr.dmf", "pcr.sg"),
             ("threeway_bad.dmf", "threeway.sg"), ("recovery.dmf", "recovery.sg"))


def _mutate_sg(rng, text: str) -> tuple[str, bool]:
    """One malformed-graph mutation of an .sg text; the flag says whether it
    always makes the graph invalid."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    nodes = {ln.split()[1]: ln.split()[2] for ln in lines if ln.startswith("node")}
    edges = [tuple(ln.split()[1:]) for ln in lines if ln.startswith("edge")]
    mixes = [n for n, k in nodes.items() if k == "mix"]
    sinks = [n for n, k in nodes.items() if k in ("output", "waste")]
    kind = rng.choice(("cycle", "dangling", "indegree", "duplicate", "sink", "kind",
                       "drop-line", "dup-line", "swap-lines", "token"))
    if kind == "cycle":
        # reverse the feed of a mix into a mix: arities hold, a cycle appears
        a, b = rng.choice([e for e in edges if e[0] in mixes and e[1] in mixes])
        feed = next(i for i, ln in enumerate(lines) if ln.startswith("edge")
                    and ln.split()[2] == a)
        lines[feed] = f"edge {b} {a}"
        return "\n".join(lines) + "\n", True
    if kind == "dangling":
        a = rng.choice(list(nodes))
        lines.append(rng.choice((f"edge {a} ghost", f"edge ghost {a}")))
        return "\n".join(lines) + "\n", True
    if kind == "indegree":
        m = rng.choice(mixes)
        feeds = [i for i, ln in enumerate(lines) if ln.startswith("edge")
                 and ln.split()[2] == m]
        if rng.random() < 0.5:
            del lines[rng.choice(feeds)]
        else:
            lines.append(lines[rng.choice(feeds)])
        return "\n".join(lines) + "\n", True
    if kind == "duplicate":
        nid = rng.choice(list(nodes))
        lines.insert(rng.randrange(1, len(lines)),
                     rng.choice((f"node {nid} output", f"node {nid} mix 3")))
        return "\n".join(lines) + "\n", True
    if kind == "sink":
        # a sink feeds a mix in place of one of its inputs: arities hold
        if not sinks:
            sinks = ["Q"]
            lines += ["node Q waste", f"edge {mixes[-1]} Q"]
        feed = rng.choice([i for i, ln in enumerate(lines) if ln.startswith("edge")
                           and ln.split()[2] in mixes])
        lines[feed] = f"edge {rng.choice(sinks)} {lines[feed].split()[2]}"
        return "\n".join(lines) + "\n", True
    if kind == "kind":
        i = rng.choice([i for i, ln in enumerate(lines) if ln.startswith("node")])
        parts = lines[i].split()
        lines[i] = " ".join(parts[:2] + [rng.choice(("heat", "split", "Mix", ""))])
        return "\n".join(lines) + "\n", True
    if kind == "drop-line":
        del lines[rng.randrange(len(lines))]
    elif kind == "dup-line":
        lines.insert(rng.randrange(len(lines)), rng.choice(lines))
    elif kind == "swap-lines":
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        i = rng.randrange(len(lines))
        parts = lines[i].split()
        parts[rng.randrange(len(parts))] = rng.choice(("0", "-1", "x", "S", "M1", "O", ""))
        lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n", False


def test_verify_survives_mutated_sg_files(tmp_path, capsys):
    rng = random.Random(2718)
    sg_file = tmp_path / "mutated.sg"
    invalid = 0
    for _ in range(200):
        program, sg = rng.choice(_SG_PAIRS)
        text, always_invalid = _mutate_sg(rng, load(sg))
        sg_file.write_text(text)
        rc = main(["verify", fx(program), "--sg", str(sg_file)])
        err = capsys.readouterr().err
        assert rc in (0, 1, 2), text
        if always_invalid:
            assert rc == 2 and err.startswith("error: "), text
            invalid += 1
    assert invalid >= 100
