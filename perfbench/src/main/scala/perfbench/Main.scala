package perfbench

import org.apache.spark.sql.SparkSession

import java.io.File
import java.lang.management.ManagementFactory

/** Command-line options. `workDir` holds Spark's scratch files and the
  * streaming checkpoints; it must lie inside the checkout. */
final case class Options(workload: String, seed: Long, seconds: Int, trace: Boolean, workDir: File) {
  /** Spark's local threads: the machine's cores, at most 4. */
  val threads: Int = math.min(4, Runtime.getRuntime.availableProcessors)
}

object Options {
  def parse(args: Array[String]): Options = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case a => throw new IllegalArgumentException(s"bad argument ${a.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val o = Options(get("workload"), get("seed").toLong, get("seconds").toInt,
                    get("trace") match { case "0" => false; case "1" => true
                                         case t => throw new IllegalArgumentException(s"--trace $t") },
                    new File(get("work")))
    require(o.seconds >= 1, "--seconds must be at least 1")
    o
  }
}

/** Metric names and units, in the order they are printed. */
object Metrics {
  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "events_per_s" -> "1/s", "latency_ms_p50" -> "ms")

  val perLayer: Seq[(String, String)] = Seq(
    "eventgen.s" -> "s",
    "shuffle.records_per_event" -> "records/event", "shuffle.bytes" -> "bytes",
    "shuffle.write_ms" -> "ms", "stage.map_task_s" -> "s", "stage.reduce_task_s" -> "s",
    "shuffle.fetch_wait_ms" -> "ms", "spark.cpu_s" -> "s", "spark.gc_s" -> "s",
    "spark.task_skew" -> "ratio",
    "core.ns_per_event" -> "ns", "core.s" -> "s", "core.peak_units" -> "units",
    "core.substreams" -> "count",
    "stream.add_batch_ms_p50" -> "ms", "stream.wal_commit_ms_p50" -> "ms",
    "stream.commit_offsets_ms_p50" -> "ms", "stream.state_commit_ms_p50" -> "ms",
    "stream.state_rows" -> "rows", "stream.state_rows_updated" -> "rows",
    "stream.state_mb" -> "MB",
    "trace.overhead_pct" -> "%")

  def json(o: Outcome, trace: Boolean): String = {
    val names = if (trace) perLayer else endToEnd
    require(o.metrics.keySet == names.map(_._1).toSet,
      s"metrics ${o.metrics.keySet.toSeq.sorted} do not match ${names.map(_._1)}")
    val ms = names.map { case (n, unit) =>
      val v = o.metrics(n)
      require(!v.isNaN && !v.isInfinite, s"metric $n is $v")
      s""""$n": {"value": $v, "unit": "$unit"}"""
    }
    s"""{"correct": ${o.correct}, "attempted": ${o.attempted}, "failed": ${o.failed}, "metrics": {${ms.mkString(", ")}}}"""
  }
}

/** Runs one workload in this JVM and prints its result as the last line of
  * standard output. */
object Main {
  val startMs: Long = ManagementFactory.getRuntimeMXBean.getStartTime

  def main(args: Array[String]): Unit = {
    val code = try {
      val opts = Options.parse(args)
      val workload = Workloads.byName(opts.workload)
      val spark = session(opts)
      val outcome = try workload.run(new Env(spark, opts)) finally spark.stop()
      println(Metrics.json(outcome, opts.trace))
      0
    } catch {
      case e: Throwable =>
        e.printStackTrace()
        1
    }
    System.exit(code)
  }

  /** The settings `JobSupport.session` gives the jobs/ entrypoints, pinned. */
  def session(opts: Options): SparkSession =
    SparkSession.builder()
      .master(s"local[${opts.threads}]")
      .appName("cogra-perfbench")
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", new File(opts.workDir, "warehouse").getPath)
      .getOrCreate()
}
