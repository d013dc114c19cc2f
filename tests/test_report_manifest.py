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
