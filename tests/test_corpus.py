"""Every command of the committed corpus gives the bytes it gave when the
corpus was written: the same exit code, stdout and stderr."""
import json

from corpus.generate import DIGESTS, run


def test_every_corpus_command_gives_its_committed_bytes():
    records = json.loads(DIGESTS.read_text())
    assert len(records) >= 500
    changed = [" ".join(record["argv"]) for record in records
               if run(record["argv"], record.get("fault")) != record]
    assert changed == [], f"{len(changed)} of {len(records)} commands changed"
