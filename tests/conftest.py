import hashlib


def digest(lines) -> str:
    """First 16 hex digits of the SHA-256 of ``lines`` joined by newlines: the
    key of every golden digest in the suite."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
