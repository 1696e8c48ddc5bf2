//! Error-path coverage for the `schema-summary serve` JSONL batch driver:
//! a bad line (malformed JSON, unknown schema, out-of-range `k`) reports
//! its error and the batch keeps going, always reaching the stats line;
//! a flag `serve` does not take stops it before it starts.

use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const DDL: &str = "
CREATE TABLE nation (
  n_nationkey INTEGER PRIMARY KEY,
  n_name TEXT
);
CREATE TABLE customer (
  c_custkey INTEGER PRIMARY KEY,
  c_name TEXT,
  c_nationkey INTEGER REFERENCES nation
);
";

/// Requests mixing every driver error path with requests that must still
/// be served afterwards. The DDL registers its schema as 'db' (7 schema
/// elements incl. root, so k=50 is oversized and k=2 is fine).
const REQUESTS: &str = r#"
# comment lines and blank lines are skipped

{"algorithm":"balance","k":2}
this line is not JSON
{"schema":"no-such-schema","algorithm":"balance","k":2}
{"algorithm":"balance","k":0}
{"algorithm":"balance","k":50}
{"algorithm":"balance","k":2}
"#;

fn write_fixture(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("schema-summary-serve-test-{name}"));
    let mut f = std::fs::File::create(&path).expect("create fixture");
    f.write_all(contents.as_bytes()).expect("write fixture");
    path
}

#[test]
fn bad_requests_report_and_the_batch_continues() {
    let ddl = write_fixture("schema.ddl", DDL);
    let requests = write_fixture("requests.jsonl", REQUESTS);
    let output = Command::new(env!("CARGO_BIN_EXE_schema-summary"))
        .args(["serve", "--ddl"])
        .arg(&ddl)
        .arg("--requests")
        .arg(&requests)
        .output()
        .expect("run schema-summary serve");
    assert!(
        output.status.success(),
        "driver must exit 0 despite bad lines: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);

    // Every good request was served; every bad one produced a numbered
    // error; the driver reached the final stats line.
    assert!(stdout.contains("#1 alg=balance k=2"), "first good request:\n{stdout}");
    assert!(stdout.contains("#2 error: request line"), "malformed JSON reported:\n{stdout}");
    assert!(
        stdout.contains("#3 error: unknown schema 'no-such-schema'"),
        "unknown schema reported:\n{stdout}"
    );
    assert!(stdout.contains("#4 error:"), "k = 0 rejected:\n{stdout}");
    assert!(stdout.contains("#5 error:"), "oversized k rejected:\n{stdout}");
    assert!(
        stdout.contains("#6 alg=balance k=2 hit"),
        "the batch continues (and hits the cache) after errors:\n{stdout}"
    );
    assert!(stdout.contains("2 served, 4 failed"), "stats line:\n{stdout}");
}

#[test]
fn empty_batch_still_prints_stats() {
    let ddl = write_fixture("schema2.ddl", DDL);
    let requests = write_fixture("empty.jsonl", "# nothing here\n\n");
    let output = Command::new(env!("CARGO_BIN_EXE_schema-summary"))
        .args(["serve", "--ddl"])
        .arg(&ddl)
        .arg("--requests")
        .arg(&requests)
        .output()
        .expect("run schema-summary serve");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("0 served, 0 failed"), "stats line:\n{stdout}");
}

/// Run `serve --ddl FILE <flag> <value>` on a null stdin; it must exit at
/// once, with status 2 and an error naming the flag, rather than run an
/// empty batch or start serving.
fn serve_rejects(fixture: &str, flag: &str, value: &str) {
    let ddl = write_fixture(fixture, DDL);
    let mut child = Command::new(env!("CARGO_BIN_EXE_schema-summary"))
        .args(["serve", "--ddl"])
        .arg(&ddl)
        .args([flag, value])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run schema-summary serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll serve") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve {flag} kept running instead of rejecting the flag");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert_eq!(status.code(), Some(2), "serve {flag}: {stderr}");
    assert!(stderr.contains(flag), "the error names {flag}: {stderr}");
}

#[test]
fn misspelled_flag_is_rejected_by_name() {
    serve_rejects("schema3.ddl", "--htpp", "127.0.0.1:0");
}

#[test]
fn retired_listen_flag_is_rejected_by_name() {
    serve_rejects("schema4.ddl", "--listen", "127.0.0.1:0");
}

#[test]
fn server_flag_without_http_is_rejected_by_name() {
    serve_rejects("schema5.ddl", "--workers", "4");
}
