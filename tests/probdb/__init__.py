def row_count(block) -> int:
    """Rows a block holds across its relations."""
    return sum(len(rows) for rows in block.rows.values())
