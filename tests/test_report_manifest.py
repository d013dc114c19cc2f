"""Reports stay identical: every run of the manifest's corpus gives the exit
code and output digest recorded in ``report_manifest.txt``.  A change that
alters a report on purpose regenerates the file (see ``report_manifest.py``)
and says why in CHANGES.md."""

import report_manifest


def test_reports_match_the_manifest(tmp_path):
    want = report_manifest.read()
    got = report_manifest.records(tmp_path)
    changed = sorted(argv for argv in want.keys() | got.keys()
                     if want.get(argv) != got.get(argv))
    assert not changed, (f"{len(changed)} of {len(got)} runs differ from the manifest "
                         f"(want -> got):\n" + "\n".join(
                             f"{argv}: {want.get(argv)} -> {got.get(argv)}"
                             for argv in changed[:40]))


def test_input_gaps_that_exit_2_print_one_error_line(tmp_path, capsys):
    from conftest import FIXTURES
    from dmfv.cli import main

    indir, outdir = tmp_path / "in", tmp_path / "out"
    indir.mkdir()
    outdir.mkdir()
    refused = 0
    for argv in report_manifest._input_gap_argvs(FIXTURES, indir, outdir):
        rc = main(argv)
        out, err = capsys.readouterr()
        if rc == 2:
            refused += 1
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
    assert refused == 15
