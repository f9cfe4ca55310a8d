//! Minimal CSV output (hand-rolled: serde/csv are outside the offline
//! dependency set; see DESIGN.md §6).

use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Quotes a CSV field if needed (commas, quotes, newlines).
fn quote(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Writes `header` and `rows` to `path` as CSV, creating parent
/// directories.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or file writing.
pub fn write_csv<P: AsRef<Path>>(path: P, header: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut file = fs::File::create(path)?;
    writeln!(
        file,
        "{}",
        header
            .iter()
            .map(|h| quote(h))
            .collect::<Vec<_>>()
            .join(",")
    )?;
    for row in rows {
        writeln!(
            file,
            "{}",
            row.iter().map(|f| quote(f)).collect::<Vec<_>>().join(",")
        )?;
    }
    Ok(())
}

/// Formats a float with a sensible number of digits for tables.
#[must_use]
pub fn fmt_f64(value: f64) -> String {
    if value.abs() >= 1000.0 {
        format!("{value:.0}")
    } else if value.abs() >= 10.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.3}")
    }
}

/// A page size for report titles: whole kibibytes as `4KB`, anything
/// else in bytes (`1088B`).
#[must_use]
pub fn fmt_page_size(bytes: usize) -> String {
    if bytes.is_multiple_of(1024) {
        format!("{}KB", bytes / 1024)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotes_only_when_needed() {
        assert_eq!(quote("plain"), "plain");
        assert_eq!(quote("a,b"), "\"a,b\"");
        assert_eq!(quote("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn writes_file_with_header() {
        let dir = std::env::temp_dir().join("aegis-csv-test");
        let path = dir.join("t.csv");
        write_csv(&path, &["a", "b"], &[vec!["1".into(), "x,y".into()]]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,\"x,y\"\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn float_formatting_scales() {
        assert_eq!(fmt_f64(1234.6), "1235");
        assert_eq!(fmt_f64(56.78), "56.8");
        assert_eq!(fmt_f64(1.2345), "1.234");
    }

    #[test]
    fn page_sizes_read_as_the_paper_writes_them() {
        assert_eq!(fmt_page_size(4096), "4KB");
        assert_eq!(fmt_page_size(256), "256B");
        assert_eq!(fmt_page_size(1088), "1088B");
    }
}
