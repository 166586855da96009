//! A thin blocking client for the line-delimited JSON protocol.
//!
//! Used by the binary's `submit` / `status` modes, the CI smoke check and
//! the `exp_serve_load` load generator. One request per call: write a line,
//! read a line, parse. Responses with `"ok": false` surface as `Err` with
//! the server's message.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use ipcl_trace::json::Json;

use crate::protocol::{JobOutcome, JobRequest};

/// A connected client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr` (`"host:port"`).
    ///
    /// # Errors
    ///
    /// Propagates connection failures as strings (the protocol layer deals
    /// in messages, not `io::Error` taxonomies).
    pub fn connect(addr: &str) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // Request lines span many TCP segments (a job carries its whole
        // netlist); Nagle + delayed ACK would add a flat ~200ms per
        // round-trip.
        let _ = writer.set_nodelay(true);
        let reader = BufReader::new(
            writer
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))?,
        );
        Ok(Client { writer, reader })
    }

    /// Sends one request line and returns the parsed response. `Err` for
    /// transport failures, malformed responses and `"ok": false` answers.
    pub fn request(&mut self, line: &str) -> Result<Json, String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer
            .write_all(framed.as_bytes())
            .and_then(|_| self.writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .map_err(|e| format!("receive: {e}"))?;
        if response.is_empty() {
            return Err("server closed the connection".to_owned());
        }
        let json = Json::parse(response.trim()).map_err(|e| format!("bad response: {e}"))?;
        match json.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(json),
            _ => Err(json
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("request failed")
                .to_owned()),
        }
    }

    /// Submits one job; returns its id.
    pub fn submit(&mut self, job: &JobRequest) -> Result<u64, String> {
        let line = format!("{{\"cmd\": \"submit\", \"job\": {}}}", job.to_json_string());
        self.request(&line)?
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| "submit response misses 'id'".to_owned())
    }

    /// Submits a batch; returns `(ids, presolved count)`, where the count is
    /// the jobs the server answered from its cache at submit.
    pub fn submit_batch(&mut self, jobs: &[JobRequest]) -> Result<(Vec<u64>, u64), String> {
        let rendered: Vec<String> = jobs.iter().map(JobRequest::to_json_string).collect();
        let line = format!(
            "{{\"cmd\": \"submit_batch\", \"jobs\": [{}]}}",
            rendered.join(", ")
        );
        let response = self.request(&line)?;
        let ids = response
            .get("ids")
            .and_then(Json::as_array)
            .ok_or("batch response misses 'ids'")?
            .iter()
            .map(|id| id.as_u64().ok_or_else(|| "bad id".to_owned()))
            .collect::<Result<Vec<u64>, String>>()?;
        let presolved = response
            .get("presolved")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        Ok((ids, presolved))
    }

    /// Blocks until job `id` finishes; returns its outcome.
    pub fn wait(&mut self, id: u64) -> Result<JobOutcome, String> {
        let response = self.request(&format!("{{\"cmd\": \"wait\", \"id\": {id}}}"))?;
        JobOutcome::from_json(
            response
                .get("result")
                .ok_or("wait response misses 'result'")?,
        )
    }

    /// The job's state name and, when done, its outcome.
    pub fn status(&mut self, id: u64) -> Result<(String, Option<JobOutcome>), String> {
        let response = self.request(&format!("{{\"cmd\": \"status\", \"id\": {id}}}"))?;
        let state = response
            .get("state")
            .and_then(Json::as_str)
            .ok_or("status response misses 'state'")?
            .to_owned();
        let outcome = response
            .get("result")
            .map(JobOutcome::from_json)
            .transpose()?;
        Ok((state, outcome))
    }

    /// Requests cancellation of job `id`.
    pub fn cancel(&mut self, id: u64) -> Result<bool, String> {
        let response = self.request(&format!("{{\"cmd\": \"cancel\", \"id\": {id}}}"))?;
        Ok(response
            .get("canceled")
            .and_then(Json::as_bool)
            .unwrap_or(false))
    }

    /// The server's queue/cache statistics object.
    pub fn stats(&mut self) -> Result<Json, String> {
        self.request("{\"cmd\": \"stats\"}")
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.request("{\"cmd\": \"shutdown\"}").map(|_| ())
    }
}
